package trace_test

import (
	"testing"
	"unsafe"

	"vppb/internal/faultinject"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// TestRepairAllocs holds Repair to one copy of the events. For every
// corruption class on a prodcons recording it may allocate one Event per
// event of its output, 4 bytes per input event for the permutation that
// walks a shuffled log, and a constant for the tables, the ID index and
// the report. It sits beside alloc_test.go because faultinject imports
// trace.
func TestRepairAllocs(t *testing.T) {
	w, err := workloads.Get("prodcons")
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := recorder.Record(w.Bind(workloads.Params{Scale: 1}), recorder.Options{Program: "prodcons"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) < 10_000 {
		t.Fatalf("recording has %d events, want at least 10k", len(rec.Events))
	}
	const eventSize = uint64(unsafe.Sizeof(trace.Event{}))
	for _, class := range faultinject.Classes() {
		bad, _, err := faultinject.Inject(rec, class, 1)
		if err != nil {
			t.Fatal(err)
		}
		var repaired *trace.Log
		got := trace.Allocated(func() {
			repaired, _, err = trace.Repair(bad)
		})
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		limit := eventSize*uint64(len(repaired.Events)) + 4*uint64(len(bad.Events)) + 64<<10
		t.Logf("%s: %d events in, %d out, allocated %d bytes, limit %d", class, len(bad.Events), len(repaired.Events), got, limit)
		if got > limit {
			t.Errorf("%s: allocated %d bytes repairing %d events into %d, limit %d", class, got, len(bad.Events), len(repaired.Events), limit)
		}
	}
}
