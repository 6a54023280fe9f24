package serve

import (
	"fmt"
	"testing"

	"vppb/internal/trace"
)

func TestDigestStableAndDistinct(t *testing.T) {
	a := Digest([]byte("hello"))
	if a != Digest([]byte("hello")) {
		t.Fatal("digest of identical bytes differs")
	}
	if a == Digest([]byte("hello!")) {
		t.Fatal("digest of different bytes collides")
	}
	if len(a) != 64 {
		t.Fatalf("digest length = %d, want 64 hex chars", len(a))
	}
}

func TestCacheHitMissAndLRUEviction(t *testing.T) {
	c := NewCache(2)
	e1 := &Entry{Digest: "d1"}
	e2 := &Entry{Digest: "d2"}
	e3 := &Entry{Digest: "d3"}

	if _, ok := c.Get("d1"); ok {
		t.Fatal("empty cache hit")
	}
	c.Add(e1)
	c.Add(e2)
	if got, ok := c.Get("d1"); !ok || got != e1 {
		t.Fatal("d1 not cached")
	}
	// d1 was just used, so adding d3 must evict d2.
	c.Add(e3)
	if _, ok := c.Get("d2"); ok {
		t.Fatal("d2 should have been the LRU eviction victim")
	}
	if _, ok := c.Get("d1"); !ok {
		t.Fatal("recently used d1 evicted")
	}
	if _, ok := c.Get("d3"); !ok {
		t.Fatal("d3 missing")
	}
	hits, misses, evicted := c.Stats()
	// Gets: d1 miss, d1 hit, d2 miss, d1 hit, d3 hit.
	if hits != 3 || misses != 2 || evicted != 1 {
		t.Fatalf("stats = %d hits, %d misses, %d evicted; want 3/2/1", hits, misses, evicted)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheAddKeepsFirstPublishedEntry(t *testing.T) {
	// Two concurrent ingests of the same bytes: the first published entry
	// wins so every requester shares one profile.
	c := NewCache(4)
	first := &Entry{Digest: "same"}
	second := &Entry{Digest: "same"}
	if got := c.Add(first); got != first {
		t.Fatal("first add did not return its own entry")
	}
	if got := c.Add(second); got != first {
		t.Fatal("duplicate add replaced the published entry")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestCacheLoadFaultsEvictedEntryFromStore pins the eviction/store
// contract at the cache layer: evicting an entry drops only the memory
// copy, and a later Load rebuilds it from the durable store's bytes.
func TestCacheLoadFaultsEvictedEntryFromStore(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(1)
	ingested := 0
	c.AttachStore(store, func(digest string, raw []byte) (*Entry, *trace.Log, error) {
		ingested++
		if digest != Digest(raw) {
			t.Errorf("ingest handed digest %s for bytes hashing to %s", digest, Digest(raw))
		}
		return &Entry{Digest: digest, Size: len(raw)}, &trace.Log{}, nil
	})

	rawA, rawB := []byte("trace a"), []byte("trace b")
	dA, dB := Digest(rawA), Digest(rawB)
	for d, raw := range map[string][]byte{dA: rawA, dB: rawB} {
		if err := store.Put(d, raw); err != nil {
			t.Fatal(err)
		}
	}
	c.Add(&Entry{Digest: dA, Size: len(rawA)})
	c.Add(&Entry{Digest: dB, Size: len(rawB)}) // evicts A from memory

	if _, ok := c.Get(dA); ok {
		t.Fatal("A still in memory after eviction")
	}
	if !store.Has(dA) {
		t.Fatal("eviction deleted the on-disk entry")
	}
	e, log, ok := c.Load(dA)
	if !ok || e.Digest != dA || log == nil {
		t.Fatalf("Load after eviction = %+v, %v, %v", e, log, ok)
	}
	if ingested != 1 {
		t.Fatalf("ingest ran %d times, want 1", ingested)
	}
	if c.Faulted() != 1 {
		t.Fatalf("Faulted = %d, want 1", c.Faulted())
	}
	// The faulted-in entry is published: a second Load is a memory hit.
	if e2, log, ok := c.Load(dA); !ok || e2 != e || log != nil {
		t.Fatal("faulted-in entry not published to the memory tier")
	}
	if ingested != 1 {
		t.Fatalf("second Load re-ingested (%d times)", ingested)
	}
	// Without a store, Load is just Get.
	plain := NewCache(1)
	if _, _, ok := plain.Load(dA); ok {
		t.Fatal("storeless cache resolved a digest from nowhere")
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < DefaultCacheEntries+10; i++ {
		c.Add(&Entry{Digest: fmt.Sprintf("d%d", i)})
	}
	if c.Len() != DefaultCacheEntries {
		t.Fatalf("len = %d, want %d", c.Len(), DefaultCacheEntries)
	}
}
