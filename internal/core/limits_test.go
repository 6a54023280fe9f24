package core_test

import (
	"math"
	"strings"
	"testing"

	"vppb/internal/core"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// hugeConcurrencyLog records radix (whose main thread calls
// thr_setconcurrency) and rewrites every recorded concurrency request to
// the largest value a log can carry.
func hugeConcurrencyLog(t *testing.T) *trace.Log {
	t.Helper()
	w, err := workloads.Get("radix")
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Threads: 4, Scale: 0.1}), recorder.Options{Program: w.Name})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range log.Events {
		if ev := &log.Events[i]; ev.Call == trace.CallThrSetConcurrency {
			ev.Prio = math.MaxInt32
			n++
		}
	}
	if n == 0 {
		t.Fatal("recording has no thr_setconcurrency")
	}
	return log
}

// TestMachineSizeLimit: a machine beyond MaxCPUs CPUs or LWPs, or a
// recorded thr_setconcurrency beyond MaxCPUs, fails the run with an error
// naming the limit instead of allocating one struct per unit.
func TestMachineSizeLimit(t *testing.T) {
	prof := workloadProfile(t, "example", 2, 1.0)
	for _, m := range []core.Machine{
		{CPUs: core.MaxCPUs + 1},
		{CPUs: 2_000_000_000},
		{CPUs: 2, LWPs: core.MaxCPUs + 1},
	} {
		if _, err := core.SimulateProfile(prof, m); err == nil || !strings.Contains(err.Error(), "4096") {
			t.Errorf("CPUs %d LWPs %d: err = %v, want the limit named", m.CPUs, m.LWPs, err)
		}
	}
	if _, err := core.SimulateProfile(prof, core.Machine{CPUs: core.MaxCPUs, LWPs: core.MaxCPUs, DiscardTimeline: true}); err != nil {
		t.Errorf("a machine at the limit fails: %v", err)
	}

	log := hugeConcurrencyLog(t)
	if _, err := core.Simulate(log, core.Machine{CPUs: 2}); err == nil || !strings.Contains(err.Error(), "thr_setconcurrency") {
		t.Errorf("thr_setconcurrency %d: err = %v, want a clean failure", math.MaxInt32, err)
	}
	// A fixed LWP pool ignores thr_setconcurrency, so the request is harmless.
	if _, err := core.Simulate(log, core.Machine{CPUs: 2, LWPs: 2}); err != nil {
		t.Errorf("fixed pool: %v", err)
	}
}
