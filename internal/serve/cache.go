package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"vppb/internal/hb"
	"vppb/internal/trace"
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

// Entry is one cached recording: the validated (possibly repaired) log,
// its immutable behaviour profile, and the lazily computed happens-before
// analysis. Everything in an Entry is immutable or internally synchronized
// once the entry is published, so any number of requests may share one
// Entry concurrently.
type Entry struct {
	// Digest is the content address of the original upload.
	Digest string
	// Size is the uploaded byte count (not the in-memory footprint).
	Size int
	// Log is the parsed log after the ingestion repair policy ran.
	Log *trace.Log
	// Profile is the simulator input derived once from Log.
	Profile *trace.Profile
	// Repaired records whether the upload failed validation and was
	// recovered; strict requests must keep rejecting such entries even on
	// a cache hit.
	Repaired bool
	// RepairSummary is the one-line repair description shown to clients.
	RepairSummary string

	hbOnce sync.Once
	hbRes  *hb.Analysis
	hbErr  error
}

// HB returns the happens-before analysis of the entry's log, computing it
// on first use and caching the result for every later request.
func (e *Entry) HB() (*hb.Analysis, error) {
	e.hbOnce.Do(func() {
		e.hbRes, e.hbErr = hb.Analyze(e.Log)
	})
	return e.hbRes, e.hbErr
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

	// store is the optional durable tier beneath the LRU; ingest rebuilds
	// an Entry from the raw stored bytes on a fault-in. Both are set once
	// by AttachStore before the cache is shared.
	store  *Store
	ingest func(digest string, raw []byte) (*Entry, error)
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
// against. Must be called before the cache is shared.
func (c *Cache) AttachStore(store *Store, ingest func(digest string, raw []byte) (*Entry, error)) {
	c.store = store
	c.ingest = ingest
}

// Load returns the entry for digest, faulting it back in from the
// attached durable store on a memory miss. Eviction only ever removes the
// in-memory entry (see Add), so an evicted digest stays loadable for as
// long as its bytes verify on disk. The boolean reports whether the entry
// was produced — from either tier.
func (c *Cache) Load(digest string) (*Entry, bool) {
	if e, ok := c.Get(digest); ok {
		return e, true
	}
	if c.store == nil {
		return nil, false
	}
	raw, err := c.store.Get(digest) // quarantines + counts corrupt entries
	if err != nil {
		return nil, false
	}
	e, err := c.ingest(digest, raw)
	if err != nil {
		// Stored bytes that hash correctly but no longer ingest (e.g. a
		// strict format change across versions) are unusable, not corrupt.
		return nil, false
	}
	c.mu.Lock()
	c.faulted++
	c.mu.Unlock()
	return c.Add(e), true
}

// Add publishes an entry, evicting least-recently-used entries beyond the
// capacity. Eviction is memory-only by design: the durable store keeps
// the entry's bytes, so a later Load faults it back in instead of forcing
// the client to re-upload. If the digest is already present (two
// concurrent uploads of the same bytes), the already published entry wins
// and is returned, so every requester shares one copy.
func (c *Cache) Add(e *Entry) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.Digest]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*Entry)
	}
	c.byKey[e.Digest] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*Entry).Digest)
		c.evicted++
	}
	return e
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
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
