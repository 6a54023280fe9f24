package trace_test

import (
	"testing"

	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// TestProfileBytesPerCall checks that a profile costs one compact record
// per call: BuildProfile fills one arena of CallRecords, and everything
// else it allocates is per thread, object or condition. On ocean at 16
// threads (about 64k calls) that is at most 64 bytes per call in all.
func TestProfileBytesPerCall(t *testing.T) {
	const limit = 64 // bytes per call
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Threads: 16, Scale: 1}), recorder.Options{Program: "ocean"})
	if err != nil {
		t.Fatal(err)
	}
	var prof *trace.Profile
	got := trace.Allocated(func() { prof, err = trace.BuildProfile(log) })
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, tp := range prof.Threads {
		calls += len(tp.Calls)
	}
	perCall := float64(got) / float64(calls)
	t.Logf("%d threads, %d calls: %.1f B/call", len(prof.Threads), calls, perCall)
	if perCall > limit {
		t.Errorf("BuildProfile allocated %.1f B/call over %d calls, limit %d", perCall, calls, limit)
	}
}
