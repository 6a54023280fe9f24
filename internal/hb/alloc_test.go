package hb

import (
	"runtime"
	"testing"

	"vppb/internal/recorder"
	"vppb/internal/workloads"
)

// TestAnalyzeBytesPerEvent checks that Analyze allocates per event, not
// per event × thread: it keeps no vector clocks, which have one component
// per thread. prodcons has 226 threads, so one clock per event would cost
// about 1 KB per event there.
func TestAnalyzeBytesPerEvent(t *testing.T) {
	const limit = 256 // bytes per event
	for _, tc := range []struct {
		name    string
		threads int
		scale   float64
	}{
		{"prodcons", 0, 1},
		{"ocean", 16, 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workloads.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			log, _, err := recorder.Record(w.Bind(workloads.Params{Threads: tc.threads, Scale: tc.scale}), recorder.Options{Program: tc.name})
			if err != nil {
				t.Fatal(err)
			}
			var a *Analysis
			got := allocated(func() { a, err = Analyze(log) })
			if err != nil {
				t.Fatal(err)
			}
			perEvent := float64(got) / float64(len(log.Events))
			t.Logf("%d threads, %d events: %.0f B/event", len(log.Threads), len(log.Events), perEvent)
			if perEvent > limit {
				t.Errorf("Analyze allocated %.0f B/event on %d threads, limit %d", perEvent, len(log.Threads), limit)
			}
			if n := len(a.Clocks()); n != len(log.Events) {
				t.Errorf("%d clocks for %d events", n, len(log.Events))
			}
		})
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
