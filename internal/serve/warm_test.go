package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vppb/internal/hb"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// countDecodes counts every decode s runs from now on.
func countDecodes(s *Server) *atomic.Int64 {
	var n atomic.Int64
	s.onDecode = func() { n.Add(1) }
	return &n
}

// binaryTraceBytes records a workload and returns its VPPBLOG1 encoding.
func binaryTraceBytes(t *testing.T, workload string, scale float64) []byte {
	t.Helper()
	w, err := workloads.Get(workload)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Scale: scale, Threads: 4}), recorder.Options{Program: workload})
	if err != nil {
		t.Fatal(err)
	}
	return trace.AppendBinary(nil, log)
}

// warmRoute is one request on a cached trace, and how many decodes it
// may run when the trace is warm.
type warmRoute struct {
	path    string
	decodes int64
}

// warmRoutes lists every trace-addressed route in the order the warm test
// sends them. /v1/optimize rebuilds the Log once to compute the numbers
// it prunes with, then never again; the hb reports rebuild it every time.
var warmRoutes = []warmRoute{
	{"/v1/predict?cpus=1,2,4", 0},
	{"/v1/view.svg?cpus=2", 0},
	{"/v1/view.html?cpus=2", 0},
	{"/v1/optimize?cpus=1,2,4", 1},
	{"/v1/optimize?cpus=1,2,4", 0},
	{"/v1/bounds", 1},
	{"/v1/lockorder", 1},
}

// byDigest appends ?trace=digest (or &trace=) to a route path.
func byDigest(path, digest string) string {
	if strings.Contains(path, "?") {
		return path + "&trace=" + digest
	}
	return path + "?trace=" + digest
}

// TestWarmRequestsDoNotDecode: a warm entry holds no Log. A warm
// /v1/predict, both views and every /v1/optimize after the first decode
// nothing; warm /v1/bounds and /v1/lockorder rebuild the Log once each.
// Every body equals, byte for byte, the body of a fresh upload of the same
// bytes. It holds for a memory-only server (rebuilt from the entry's
// binary copy), a store-backed one (rebuilt from the store's bytes), an
// entry evicted and faulted back in, and an entry whose store write
// failed (a binary copy again); for a text upload, a binary one and a
// repaired one.
func TestWarmRequestsDoNotDecode(t *testing.T) {
	uploads := map[string][]byte{
		"text":     traceBytes(t, "lockorder", 0.2),
		"binary":   binaryTraceBytes(t, "prodcons", 0.2),
		"repaired": corruptBytes(t),
	}
	other := traceBytes(t, "example", 0.1)

	// A fresh upload to a new server per route gives each reference body.
	want := make(map[string]map[string][]byte)
	for name, raw := range uploads {
		want[name] = make(map[string][]byte)
		for _, rt := range warmRoutes {
			_, ts := newTestServer(t, Config{})
			resp, body := post(t, ts.URL+rt.path, raw)
			if resp.StatusCode != 200 {
				t.Fatalf("%s: fresh %s: %d %s", name, rt.path, resp.StatusCode, body)
			}
			want[name][rt.path] = body
		}
	}

	modes := []struct {
		name string
		cfg  func(t *testing.T) Config
		// prepare runs after the upload, before the warm requests.
		prepare func(t *testing.T, s *Server, url, digest string)
	}{
		{name: "memory", cfg: func(*testing.T) Config { return Config{} }},
		{name: "store", cfg: func(t *testing.T) Config { return Config{StoreDir: t.TempDir()} }},
		{
			name: "faultin",
			cfg:  func(t *testing.T) Config { return Config{StoreDir: t.TempDir(), CacheEntries: 1} },
			prepare: func(t *testing.T, s *Server, url, digest string) {
				if resp, body := post(t, url+"/v1/predict?cpus=1", other); resp.StatusCode != 200 {
					t.Fatalf("evicting upload: %d %s", resp.StatusCode, body)
				}
				if resp, body := post(t, url+"/v1/predict?cpus=1&trace="+digest, nil); resp.StatusCode != 200 {
					t.Fatalf("fault-in: %d %s", resp.StatusCode, body)
				}
				if s.Cache().Faulted() != 1 {
					t.Fatalf("fault-ins = %d, want 1", s.Cache().Faulted())
				}
			},
		},
		{
			name: "putfail",
			cfg:  func(t *testing.T) Config { return Config{StoreDir: t.TempDir()} },
			prepare: func(t *testing.T, s *Server, _, digest string) {
				if s.Store().PutErrorsTotal() != 1 || s.Store().Has(digest) {
					t.Fatalf("store put errors = %d, has = %v; want a failed put", s.Store().PutErrorsTotal(), s.Store().Has(digest))
				}
			},
		},
	}
	for _, mode := range modes {
		for name, raw := range uploads {
			t.Run(mode.name+"/"+name, func(t *testing.T) {
				cfg := mode.cfg(t)
				s, ts := newTestServer(t, cfg)
				if mode.name == "putfail" {
					// Without its staging directory every store write fails.
					if err := os.RemoveAll(filepath.Join(cfg.StoreDir, "tmp")); err != nil {
						t.Fatal(err)
					}
				}
				decodes := countDecodes(s)
				resp, body := post(t, ts.URL+"/v1/predict?cpus=1", raw)
				if resp.StatusCode != 200 {
					t.Fatalf("upload: %d %s", resp.StatusCode, body)
				}
				if n := decodes.Load(); n != 1 {
					t.Fatalf("upload decoded %d times, want 1", n)
				}
				digest := Digest(raw)
				if mode.prepare != nil {
					mode.prepare(t, s, ts.URL, digest)
				}
				for _, rt := range warmRoutes {
					decodes.Store(0)
					resp, body := post(t, ts.URL+byDigest(rt.path, digest), nil)
					if resp.StatusCode != 200 {
						t.Fatalf("warm %s: %d %s", rt.path, resp.StatusCode, body)
					}
					if n := decodes.Load(); n != rt.decodes {
						t.Errorf("warm %s decoded %d times, want %d", rt.path, n, rt.decodes)
					}
					if !bytes.Equal(body, want[name][rt.path]) {
						t.Errorf("warm %s body differs from a fresh upload's:\n--- warm\n%s--- fresh\n%s", rt.path, body, want[name][rt.path])
					}
				}

				// A fresh bounds upload analyzes the Log it decoded.
				s2, ts2 := newTestServer(t, mode.cfg(t))
				decodes2 := countDecodes(s2)
				resp, body = post(t, ts2.URL+"/v1/bounds", raw)
				if resp.StatusCode != 200 || !bytes.Equal(body, want[name]["/v1/bounds"]) {
					t.Fatalf("fresh bounds upload: %d %s", resp.StatusCode, body)
				}
				if n := decodes2.Load(); n != 1 {
					t.Errorf("fresh bounds upload decoded %d times, want 1", n)
				}
			})
		}
	}
}

// TestFaultInBoundsDecodesOnce: a bounds request that faults an evicted
// entry back in analyzes the Log the fault-in decoded.
func TestFaultInBoundsDecodesOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), CacheEntries: 1})
	raw := traceBytes(t, "lockorder", 0.2)
	resp, want := post(t, ts.URL+"/v1/bounds", raw)
	if resp.StatusCode != 200 {
		t.Fatalf("upload: %d %s", resp.StatusCode, want)
	}
	post(t, ts.URL+"/v1/predict?cpus=1", traceBytes(t, "example", 0.1)) // evicts it
	decodes := countDecodes(s)
	resp, body := post(t, ts.URL+"/v1/bounds?trace="+Digest(raw), nil)
	if resp.StatusCode != 200 || !bytes.Equal(body, want) {
		t.Fatalf("bounds after eviction: %d %s", resp.StatusCode, body)
	}
	if n := decodes.Load(); n != 1 || s.Cache().Faulted() != 1 {
		t.Fatalf("bounds after eviction decoded %d times over %d fault-ins, want 1 and 1", n, s.Cache().Faulted())
	}
}

// TestHBNumbersComputedOncePerEntry: /v1/optimize prunes with Work and
// SerialDemand of the entry's first happens-before analysis. The first
// optimize of an entry uploaded to /v1/predict rebuilds its Log once to
// compute them; later ones reuse them, and an entry uploaded to
// /v1/bounds has them from that analysis.
func TestHBNumbersComputedOncePerEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	decodes := countDecodes(s)
	raw := traceBytes(t, "example", 0.2)
	log, err := trace.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	a, err := hb.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := post(t, ts.URL+"/v1/predict?cpus=1", raw); resp.StatusCode != 200 {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var first []byte
	for i, wantDecodes := range []int64{2, 2, 2} {
		resp, body := post(t, ts.URL+"/v1/optimize?trace="+Digest(raw), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("optimize %d: %d %s", i, resp.StatusCode, body)
		}
		if n := decodes.Load(); n != wantDecodes {
			t.Fatalf("after optimize %d: %d decodes, want %d", i, n, wantDecodes)
		}
		var got struct {
			Work         int64 `json:"work"`
			SerialDemand int64 `json:"serial_demand"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Work != int64(a.Work) || got.SerialDemand != int64(a.SerialDemand) {
			t.Fatalf("optimize %d prunes with work %d, serial demand %d; hb.Analyze gives %d, %d",
				i, got.Work, got.SerialDemand, a.Work, a.SerialDemand)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("optimize %d body differs from the first", i)
		}
	}

	raw2 := traceBytes(t, "prodcons", 0.2)
	if resp, body := post(t, ts.URL+"/v1/bounds", raw2); resp.StatusCode != 200 {
		t.Fatalf("bounds upload: %d %s", resp.StatusCode, body)
	}
	decodes.Store(0)
	if resp, body := post(t, ts.URL+"/v1/optimize?trace="+Digest(raw2), nil); resp.StatusCode != 200 {
		t.Fatalf("optimize after bounds: %d %s", resp.StatusCode, body)
	}
	if n := decodes.Load(); n != 0 {
		t.Fatalf("optimize after a bounds upload decoded %d times, want 0", n)
	}
}

// cacheBytesGauge reads vppb_cache_bytes from /metrics.
func cacheBytesGauge(t *testing.T, url string) int64 {
	t.Helper()
	_, body := get(t, url+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "vppb_cache_bytes "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no vppb_cache_bytes:\n%s", body)
	return 0
}

// sumEntryBytes adds up the Bytes of every cached entry.
func sumEntryBytes(c *Cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		n += el.Value.(*Entry).Bytes
	}
	return n
}

// TestCacheBytesGauge: vppb_cache_bytes is the sum of the cached
// entries' Bytes. It falls when an entry is evicted for a smaller one and
// rises when the larger one faults back in. A memory-only entry counts
// its binary copy.
func TestCacheBytesGauge(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), CacheEntries: 1})
	big := traceBytes(t, "prodcons", 0.3)
	small := traceBytes(t, "example", 0.1)
	check := func(what string) int64 {
		t.Helper()
		g := cacheBytesGauge(t, ts.URL)
		if sum := sumEntryBytes(s.Cache()); g != sum || g <= 0 {
			t.Fatalf("%s: vppb_cache_bytes %d, entries sum to %d", what, g, sum)
		}
		return g
	}
	post(t, ts.URL+"/v1/predict?cpus=1", big)
	g1 := check("big cached")
	post(t, ts.URL+"/v1/predict?cpus=1", small)
	g2 := check("big evicted for small")
	if g2 >= g1 {
		t.Fatalf("gauge did not fall on eviction: %d -> %d", g1, g2)
	}
	post(t, ts.URL+"/v1/predict?cpus=1&trace="+Digest(big), nil)
	if g3 := check("big faulted back in"); g3 <= g2 || g3 != g1 {
		t.Fatalf("gauge after fault-in %d, want %d (up from %d)", g3, g1, g2)
	}

	mem, mts := newTestServer(t, Config{})
	post(t, mts.URL+"/v1/predict?cpus=1", small)
	e, ok := mem.Cache().Get(Digest(small))
	if !ok || len(e.binary) == 0 || e.Bytes < int64(len(e.binary))+e.Profile.Bytes() {
		t.Fatalf("memory-only entry: binary copy %d B, Bytes %d", len(e.binary), e.Bytes)
	}
	if g := cacheBytesGauge(t, mts.URL); g != e.Bytes {
		t.Fatalf("memory-only vppb_cache_bytes %d, entry %d", g, e.Bytes)
	}
}

// TestEntryHoldsNoEvents: nothing an Entry references, its Profile
// included, can hold a recorded event.
func TestEntryHoldsNoEvents(t *testing.T) {
	event := reflect.TypeOf(trace.Event{})
	seen := make(map[reflect.Type]bool)
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ == event {
			t.Errorf("Entry reaches a trace.Event through %s", path)
			return
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Map:
			walk(typ.Key(), path+"{key}")
			walk(typ.Elem(), path+"{}")
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(f.Type, fmt.Sprintf("%s.%s", path, f.Name))
			}
		case reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("Entry holds %v at %s, which this check cannot see through", typ, path)
		}
	}
	walk(reflect.TypeOf(Entry{}), "Entry")
}

// TestRebuildFromCorruptStoreBytes: a warm bounds request whose stored
// bytes no longer verify is a 404 that drops the entry, and uploading the
// bytes again ingests and stores them afresh.
func TestRebuildFromCorruptStoreBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	raw := traceBytes(t, "lockorder", 0.2)
	resp, want := post(t, ts.URL+"/v1/bounds", raw)
	if resp.StatusCode != 200 {
		t.Fatalf("upload: %d %s", resp.StatusCode, want)
	}
	digest := Digest(raw)
	path := s.Store().ObjectPath(digest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/bounds?trace="+digest, nil)
	if resp.StatusCode != http.StatusNotFound || s.Store().CorruptTotal() != 1 {
		t.Fatalf("bounds on corrupt store bytes: %d %s (quarantined %d)", resp.StatusCode, body, s.Store().CorruptTotal())
	}
	if _, ok := s.Cache().Get(digest); ok || s.Cache().Bytes() != 0 {
		t.Fatalf("entry kept after its bytes were lost (cache bytes %d)", s.Cache().Bytes())
	}
	if resp, body := post(t, ts.URL+"/v1/bounds", raw); resp.StatusCode != 200 || !bytes.Equal(body, want) {
		t.Fatalf("re-upload: %d %s", resp.StatusCode, body)
	}
	if !s.Store().Has(digest) {
		t.Fatal("re-upload did not restore the store entry")
	}
}

// TestConcurrentWarmRequests: optimize, bounds and predict requests on one
// warm entry at once share its hb numbers and its cache accounting
// safely, and each still answers a fresh upload's body.
func TestConcurrentWarmRequests(t *testing.T) {
	raw := traceBytes(t, "lockorder", 0.2)
	paths := []string{"/v1/optimize?cpus=1,2,4", "/v1/bounds", "/v1/predict?cpus=1,2"}
	want := make(map[string][]byte)
	for _, path := range paths {
		_, ts := newTestServer(t, Config{})
		_, want[path] = post(t, ts.URL+path, raw)
	}
	s, ts := newTestServer(t, Config{})
	if resp, body := post(t, ts.URL+"/v1/predict?cpus=1", raw); resp.StatusCode != 200 {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var wg sync.WaitGroup
	for i := range 12 {
		path := paths[i%len(paths)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+byDigest(path, Digest(raw)), "application/octet-stream", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != 200 || !bytes.Equal(body, want[path]) {
				t.Errorf("%s: %d %v, body differs from a fresh upload's", path, resp.StatusCode, err)
			}
		}()
	}
	wg.Wait()
	if g := s.Cache().Bytes(); g != sumEntryBytes(s.Cache()) {
		t.Fatalf("cache bytes %d, entries sum to %d", g, sumEntryBytes(s.Cache()))
	}
}
