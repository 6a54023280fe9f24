package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"vppb/internal/sched"
	"vppb/internal/threadlib"
	"vppb/internal/trace"
)

// The flat-arena refactor replaced every map in the simulator's mutable
// state (the rwlock reader set, join waiter lists, per-thread CPU
// accounting) with dense index-keyed storage, precisely so that no replay
// decision and no encoded output can depend on Go's randomized map
// iteration order. The tests in this file are the regression net for that
// property: identical inputs must yield byte-identical outputs, run after
// run.

// rwReaderHeavyProg is a reader-heavy rwlock workload: most acquisitions
// are read locks, so many threads hold the lock simultaneously and the
// simulator's reader set stays populated. With the old
// map[*sthread]bool reader set, any path iterating it could reorder
// wakes between runs; the ordered dense-index set must not.
func rwReaderHeavyProg(p *threadlib.Process) func(*threadlib.Thread) {
	rw := p.NewRWLock("table")
	const workers = 6
	worker := func(id int) func(*threadlib.Thread) {
		return func(t *threadlib.Thread) {
			for i := 0; i < 12; i++ {
				if (i+id)%6 == 5 {
					rw.WrLock(t)
					t.Compute(80)
					rw.Unlock(t)
				} else {
					rw.RdLock(t)
					t.Compute(30)
					rw.Unlock(t)
				}
				t.Compute(20)
			}
		}
	}
	return func(main *threadlib.Thread) {
		main.SetConcurrency(4)
		ids := make([]trace.ThreadID, workers)
		for i := range ids {
			ids[i] = main.Create(worker(i))
		}
		for _, id := range ids {
			main.Join(id)
		}
	}
}

// marshalResult flattens everything observable about a prediction —
// duration, event count, per-thread accounting and the full timeline —
// into one byte string for exact comparison. json.Marshal sorts map keys,
// so any nondeterminism surfacing here is real ordering nondeterminism in
// the simulation or the encoders, not map-marshaling noise.
func marshalResult(t *testing.T, res *Result) []byte {
	t.Helper()
	head, err := json.Marshal(struct {
		Duration any
		Events   int64
		PerCPU   any
	}{res.Duration, res.Events, res.PerThreadCPU})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := trace.MarshalTimeline(res.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	return append(head, tl...)
}

// TestRWLockReaderHeavyReplayDeterminism replays a reader-heavy rwlock
// recording twenty times on a contended machine and demands byte-identical
// results every time.
func TestRWLockReaderHeavyReplayDeterminism(t *testing.T) {
	log := record(t, rwReaderHeavyProg)
	prof, err := trace.BuildProfile(log)
	if err != nil {
		t.Fatal(err)
	}
	m := Machine{CPUs: 4}
	first := marshalResult(t, mustSim(t, log, m))
	for run := 1; run < 20; run++ {
		res, err := SimulateProfile(prof, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := marshalResult(t, res); !bytes.Equal(got, first) {
			t.Fatalf("run %d diverged from run 0:\n run0: %.200s\n run%d: %.200s", run, first, run, got)
		}
	}
}

// TestMarshaledResultDeterminism covers the remaining output paths over a
// workload mix (sync-heavy, io+rwlock) and several machine shapes: the
// marshaled result of every (profile, machine) pair must be identical
// across repeated fresh simulations.
func TestMarshaledResultDeterminism(t *testing.T) {
	progs := map[string]func(*threadlib.Process) func(*threadlib.Thread){
		"rwlock": rwReaderHeavyProg,
		"conc":   concProg,
	}
	machines := []Machine{{CPUs: 2}, {CPUs: 4, LWPs: 3}, {CPUs: 8}}
	for name, prog := range progs {
		log := record(t, prog)
		prof, err := trace.BuildProfile(log)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			var first []byte
			for run := 0; run < 5; run++ {
				res, err := SimulateProfile(prof, m)
				if err != nil {
					t.Fatal(err)
				}
				got := marshalResult(t, res)
				if run == 0 {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Fatalf("%s on %+v: run %d diverged", name, m, run)
				}
			}
		}
	}
}

// TestSteadyStateReplayAllocs pins the zero-alloc replay loop: the loop
// itself must not allocate, so a recording with ~3x the events costs the
// same allocations per run as the small one (both pay only the
// O(threads) per-run setup: arenas, LWPs, the result map). Comparing two
// sizes of the same workload makes the test robust to setup-cost changes
// while still catching any per-event allocation, which would scale with
// the event delta. The table covers prediction-only and timeline-building
// replays, 4 threads and an oversubscribed 8 on 4 CPUs, under every
// registered policy.
func TestSteadyStateReplayAllocs(t *testing.T) { checkSteadyStateReplayAllocs(t) }

// TestSteadyStateReplayAllocsDebugChecks is TestSteadyStateReplayAllocs
// with sched.DebugChecks on: the link check after every event allocates
// nothing either. It sets a package-wide flag, so it must not run in
// parallel.
func TestSteadyStateReplayAllocsDebugChecks(t *testing.T) {
	sched.DebugChecks = true
	t.Cleanup(func() { sched.DebugChecks = false })
	checkSteadyStateReplayAllocs(t)
}

func checkSteadyStateReplayAllocs(t *testing.T) {
	mkProf := func(threads, iters int) (*trace.Profile, int64) {
		prog := func(p *threadlib.Process) func(*threadlib.Thread) {
			mu := p.NewMutex("m")
			worker := func(t *threadlib.Thread) {
				for i := 0; i < iters; i++ {
					t.Compute(40)
					mu.Lock(t)
					t.Compute(15)
					mu.Unlock(t)
				}
			}
			return func(main *threadlib.Thread) {
				main.SetConcurrency(threads)
				ids := make([]trace.ThreadID, threads)
				for i := range ids {
					ids[i] = main.Create(worker)
				}
				for _, id := range ids {
					main.Join(id)
				}
			}
		}
		log := record(t, prog)
		prof, err := trace.BuildProfile(log)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateProfile(prof, Machine{CPUs: 4, DiscardTimeline: true})
		if err != nil {
			t.Fatal(err)
		}
		return prof, res.Events
	}

	for _, threads := range []int{4, 8} {
		smallProf, smallEvents := mkProf(threads, 20)
		bigProf, bigEvents := mkProf(threads, 80)
		if bigEvents < 2*smallEvents {
			t.Fatalf("workload sizing broken: %d events vs %d", bigEvents, smallEvents)
		}
		for _, discard := range []bool{true, false} {
			for _, policy := range sched.Names() {
				name := fmt.Sprintf("%dthreads/discard=%v/%s", threads, discard, policy)
				t.Run(name, func(t *testing.T) {
					m := Machine{CPUs: 4, Policy: policy, DiscardTimeline: discard}
					measure := func(prof *trace.Profile) float64 {
						return testing.AllocsPerRun(20, func() {
							if _, err := SimulateProfile(prof, m); err != nil {
								t.Fatal(err)
							}
						})
					}
					small := measure(smallProf)
					big := measure(bigProf)
					perEvent := (big - small) / float64(bigEvents-smallEvents)
					t.Logf("allocs/run: small=%v (%d events), big=%v (%d events), marginal allocs/event=%g",
						small, smallEvents, big, bigEvents, perEvent)
					if perEvent > 0.01 {
						t.Fatalf("replay loop allocates: %g allocs/event (small run %v allocs, big run %v)", perEvent, small, big)
					}
				})
			}
		}
	}
}
