package trace_test

import (
	"runtime"
	"testing"
	"unsafe"

	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// TestProfileBytesPerCall checks that a profile costs one compact record
// per call and keeps no events. BuildProfile fills one arena of
// CallRecords, and everything else it allocates is per thread, object,
// condition or call site. On ocean at 16 threads (about 64k calls) that
// is at most 64 bytes per call in all. Once the Log is dropped, what the
// profile retains is its 56-byte records, its site table, and tables per
// thread and object.
func TestProfileBytesPerCall(t *testing.T) {
	const (
		limit     = 64      // bytes allocated per call
		perRecord = 56      // bytes retained per call
		tables    = 1 << 16 // bytes retained for threads, objects and names
	)
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := recorder.Record(w.Bind(workloads.Params{Threads: 16, Scale: 1}), recorder.Options{Program: "ocean"})
	if err != nil {
		t.Fatal(err)
	}
	raw := trace.AppendBinary(nil, rec)
	rec = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	log, err := trace.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	var prof *trace.Profile
	got := trace.Allocated(func() { prof, err = trace.BuildProfile(log) })
	if err != nil {
		t.Fatal(err)
	}
	log = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	calls := 0
	for _, tp := range prof.Threads {
		calls += len(tp.Calls)
	}
	perCall := float64(got) / float64(calls)
	sites := int64(len(prof.Sites)) * int64(unsafe.Sizeof(trace.CallSite{}))
	t.Logf("%d threads, %d calls, %d sites: %.1f B/call allocated, %d B retained (%.1f B/call)",
		len(prof.Threads), calls, len(prof.Sites), perCall, retained, float64(retained)/float64(calls))
	if perCall > limit {
		t.Errorf("BuildProfile allocated %.1f B/call over %d calls, limit %d", perCall, calls, limit)
	}
	if max := int64(calls)*perRecord + sites + tables; retained > max {
		t.Errorf("profile retains %d B without its log, limit %d (%d calls, %d B of sites)", retained, max, calls, sites)
	}
	runtime.KeepAlive(prof)
	runtime.KeepAlive(raw)
}
