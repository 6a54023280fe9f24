package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"unsafe"

	"vppb/internal/hb"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// Digest is the content address of an uploaded recording: the SHA-256 of
// the raw uploaded bytes, hex-encoded. Text and binary encodings of the
// same log hash differently on purpose — the cache answers "have I seen
// these bytes?", never "are these logs semantically equal?", so a lookup
// can skip parsing entirely.
func Digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Entry is one cached recording: its immutable behaviour profile, its
// repair verdict, and the two happens-before numbers /v1/optimize prunes
// with once an analysis has run. An entry keeps no events. The hb reports,
// their only readers, rebuild the Log: from the store's bytes, or from
// the entry's binary copy when the store does not hold them. Everything
// in an Entry is immutable or internally synchronized once the entry is
// published, so any number of requests may share one Entry concurrently.
type Entry struct {
	// Digest is the content address of the original upload.
	Digest string
	// Size is the uploaded byte count (not the in-memory footprint).
	Size int
	// Profile is the simulator input derived once from the ingested log.
	Profile *trace.Profile
	// Repaired records whether the upload failed validation and was
	// recovered; strict requests must keep rejecting such entries even on
	// a cache hit.
	Repaired bool
	// RepairSummary is the one-line repair description shown to clients.
	RepairSummary string
	// Bytes is what the entry holds resident, fixed when the cache
	// publishes it: the profile's tables, the binary copy and the entry
	// itself, hb numbers included.
	Bytes int64

	// binary is a VPPBLOG1 encoding of the ingested (repaired) log, kept
	// only when the store does not hold the upload's bytes.
	binary []byte

	// hbMu guards the numbers of the entry's first happens-before
	// analysis: hbDone once one ran, hbOK if it succeeded.
	hbMu               sync.Mutex
	hbDone, hbOK       bool
	work, serialDemand vtime.Duration
}

// setHB keeps Work and SerialDemand from the entry's first analysis. The
// caller holds hbMu.
func (e *Entry) setHB(a *hb.Analysis, err error) {
	if e.hbDone {
		return
	}
	e.hbDone = true
	if err == nil {
		e.hbOK, e.work, e.serialDemand = true, a.Work, a.SerialDemand
	}
}

// resident is the entry's Bytes.
func (e *Entry) resident() int64 {
	n := int64(unsafe.Sizeof(*e)) + int64(cap(e.binary))
	if e.Profile != nil {
		n += e.Profile.Bytes()
	}
	return n
}

// Cache is a content-addressed LRU of recording entries: the serving hot
// path. A repeated upload (or a ?trace= reference) skips parse, repair and
// profile derivation entirely.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *Entry
	byKey   map[string]*list.Element
	hits    int64
	misses  int64
	evicted int64
	faulted int64
	bytes   int64 // sum of the cached entries' Bytes

	// store is the optional durable tier beneath the LRU; ingest rebuilds
	// an Entry from the raw stored bytes on a fault-in. Both are set once
	// by AttachStore before the cache is shared.
	store  *Store
	ingest func(digest string, raw []byte) (*Entry, *trace.Log, error)
}

// DefaultCacheEntries is the cache capacity when the configuration leaves
// it zero.
const DefaultCacheEntries = 64

// NewCache creates a cache holding at most capacity entries (<= 0 selects
// DefaultCacheEntries).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// Get returns the entry stored under digest, marking it most recently
// used. Every call counts as one hit or one miss.
func (c *Cache) Get(digest string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[digest]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*Entry), true
}

// AttachStore wires the durable tier under the LRU: Load falls back to
// reading (and re-verifying) store bytes and rebuilding the entry via
// ingest, which is handed the digest the bytes were just verified
// against and returns the entry with the Log it decoded. Must be called
// before the cache is shared.
func (c *Cache) AttachStore(store *Store, ingest func(digest string, raw []byte) (*Entry, *trace.Log, error)) {
	c.store = store
	c.ingest = ingest
}

// Load returns the entry for digest, faulting it back in from the
// attached durable store on a memory miss. Eviction only ever removes the
// in-memory entry (see Add), so an evicted digest stays loadable for as
// long as its bytes verify on disk. A fault-in also returns the Log it
// decoded; a memory hit returns a nil Log. The boolean reports whether
// the entry was produced — from either tier.
func (c *Cache) Load(digest string) (*Entry, *trace.Log, bool) {
	if e, ok := c.Get(digest); ok {
		return e, nil, true
	}
	if c.store == nil {
		return nil, nil, false
	}
	raw, err := c.store.Get(digest) // quarantines + counts corrupt entries
	if err != nil {
		return nil, nil, false
	}
	e, log, err := c.ingest(digest, raw)
	if err != nil {
		// Stored bytes that hash correctly but no longer ingest (e.g. a
		// strict format change across versions) are unusable, not corrupt.
		return nil, nil, false
	}
	c.mu.Lock()
	c.faulted++
	c.mu.Unlock()
	return c.Add(e), log, true
}

// Add publishes an entry, evicting least-recently-used entries beyond the
// capacity. Eviction is memory-only by design: the durable store keeps
// the entry's bytes, so a later Load faults it back in instead of forcing
// the client to re-upload. If the digest is already present (two
// concurrent uploads of the same bytes), the already published entry wins
// and is returned, so every requester shares one copy. Publishing fixes
// the entry's Bytes.
func (c *Cache) Add(e *Entry) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.Digest]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*Entry)
	}
	e.Bytes = e.resident()
	c.bytes += e.Bytes
	c.byKey[e.Digest] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		oldest := c.order.Remove(c.order.Back()).(*Entry)
		delete(c.byKey, oldest.Digest)
		c.bytes -= oldest.Bytes
		c.evicted++
	}
	return e
}

// Remove drops digest's entry from memory, if cached. The store is
// untouched.
func (c *Cache) Remove(digest string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[digest]; ok {
		c.bytes -= c.order.Remove(el).(*Entry).Bytes
		delete(c.byKey, digest)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the sum of the cached entries' Bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns the lifetime hit, miss and eviction counts.
func (c *Cache) Stats() (hits, misses, evicted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted
}

// Faulted returns how many entries were rebuilt from the durable store
// after a memory miss.
func (c *Cache) Faulted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faulted
}
