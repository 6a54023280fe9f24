package core

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// genProfile records generated program seed, oversubscribed or not, and
// builds its profile.
func genProfile(t *testing.T, seed uint64, oversubscribed bool) *trace.Profile {
	t.Helper()
	log, _, err := recorder.Record(genProgram(seed, oversubscribed), recorder.Options{Program: fmt.Sprintf("rand-%d", seed)})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	prof, err := trace.BuildProfile(log)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return prof
}

// TestReuseMatchesReplay is the differential check behind replay reuse:
// whenever a replay claims to stand for another machine (StandsFor), it
// must equal a real replay of that machine in duration, event count and
// per-thread CPU time. It covers generated programs, plain and
// oversubscribed (genProgram), under every policy, CPU count, LWP pool and
// communication delay of the grid below, and every pair of their replays.
// The oversubscribed programs are the ones whose threads wait for an LWP
// in the user run queue while no LWP waits for a CPU.
func TestReuseMatchesReplay(t *testing.T) {
	var machines []Machine
	for _, delay := range []vtime.Duration{0, vtime.Millisecond} {
		for _, lwps := range []int{0, 2} {
			for _, policy := range []string{"ts", "fifo", "rr"} {
				for _, cpus := range []int{1, 2, 3, 4, 5, 8, 16} {
					machines = append(machines, Machine{CPUs: cpus, LWPs: lwps, CommDelay: delay, Policy: policy, DiscardTimeline: true})
				}
			}
		}
	}
	for _, oversubscribed := range []bool{false, true} {
		covered := 0
		for seed := uint64(1); seed <= 300; seed++ {
			results, err := SimulateMany(genProfile(t, seed, oversubscribed), machines)
			if err != nil {
				t.Fatalf("seed %d (oversubscribed %v): %v", seed, oversubscribed, err)
			}
			for _, r := range results {
				for j, m := range machines {
					if results[j] == r || !r.StandsFor(m) {
						continue
					}
					covered++
					got := results[j]
					if got.Duration != r.Duration || got.Events != r.Events || !maps.Equal(got.PerThreadCPU, r.PerThreadCPU) {
						rm := r.Machine
						t.Errorf("seed %d (oversubscribed %v): %s@%d (lwps %d, peak %d) stands for %s@%d, but gives %v/%d events where a replay gives %v/%d",
							seed, oversubscribed, rm.Policy, rm.CPUs, rm.LWPs, r.PeakRunning, m.Policy, m.CPUs, r.Duration, r.Events, got.Duration, got.Events)
					}
				}
			}
		}
		if covered == 0 {
			t.Fatalf("oversubscribed %v: no replay stood for another machine", oversubscribed)
		}
		t.Logf("oversubscribed %v: %d (replay, machine) pairs covered", oversubscribed, covered)
	}

	// Why a communication delay rules reuse out: on seed 9 at 1 ms, ts@5
	// never contended and peaked within 5 CPUs, yet fifo@5 finishes
	// sooner. Several LWPs made runnable in one instant take their CPUs in
	// policy order, and the delay makes the CPU a thread runs on move its
	// later wakes.
	prof := genProfile(t, 9, false)
	ts5, err := SimulateProfile(prof, Machine{CPUs: 5, Policy: "ts", CommDelay: vtime.Millisecond, DiscardTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	fifo5, err := SimulateProfile(prof, Machine{CPUs: 5, Policy: "fifo", CommDelay: vtime.Millisecond, DiscardTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if ts5.Contended || ts5.PeakRunning > 5 || ts5.Duration == fifo5.Duration {
		t.Fatalf("seed 9 at 1 ms no longer shows the delay case: ts@5 contended %v, peak %d, %v; fifo@5 %v",
			ts5.Contended, ts5.PeakRunning, ts5.Duration, fifo5.Duration)
	}
	if ts5.StandsFor(fifo5.Machine) {
		t.Fatalf("ts@5 at 1 ms stands for fifo@5, which replays to %v, not %v", fifo5.Duration, ts5.Duration)
	}
}

// TestSimulateManyMergesDuplicates: identical machines replay once and
// share one result, machines with overrides never merge, and the error
// is the one a sequential loop meets first.
func TestSimulateManyMergesDuplicates(t *testing.T) {
	prof, err := trace.BuildProfile(record(t, concProg))
	if err != nil {
		t.Fatal(err)
	}
	pin := map[trace.ThreadID]Override{trace.MainThread: {Binding: BindLWP}}
	machines := []Machine{
		{CPUs: 1}, {CPUs: 2}, {}, Machine{CPUs: 2}.Uniprocessor(),
		{CPUs: 2, Overrides: pin}, {CPUs: 2, Overrides: pin}, {CPUs: 2, Policy: "rr"},
	}
	many, err := SimulateMany(prof, machines)
	if err != nil {
		t.Fatal(err)
	}
	// Machine i shares the result of machine j, the first identical to it.
	for i, j := range []int{0, 1, 0, 0, 4, 5, 6} {
		if many[i] != many[j] {
			t.Fatalf("machine %d: result not shared with machine %d", i, j)
		}
		seq, err := SimulateProfile(prof, machines[i])
		if err != nil {
			t.Fatal(err)
		}
		if many[i].Duration != seq.Duration || many[i].Events != seq.Events || !maps.Equal(many[i].PerThreadCPU, seq.PerThreadCPU) {
			t.Fatalf("machine %d: merged %v/%d, sequential %v/%d", i, many[i].Duration, many[i].Events, seq.Duration, seq.Events)
		}
	}
	if many[0] == many[1] || many[1] == many[6] || many[4] == many[5] || many[1] == many[4] {
		t.Fatal("distinct machines, or machines with overrides, share a result")
	}

	// The lowest-index failure wins, as in a sequential loop, whether or
	// not a failing machine repeats.
	budget := Machine{CPUs: 2, MaxSimEvents: 1}
	bad := Machine{CPUs: 2, Policy: "nope"}
	for _, ms := range [][]Machine{
		{{CPUs: 2}, budget, bad, budget},
		{bad, budget, bad},
		{budget, {CPUs: 4}, budget},
	} {
		var want error
		for _, m := range ms {
			if _, want = SimulateProfile(prof, m); want != nil {
				break
			}
		}
		_, got := SimulateMany(prof, ms)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("SimulateMany error %v, sequential loop %v", got, want)
		}
	}
}

// TestMachineIdenticalEveryField: identical compares every Machine field,
// so a field added later cannot merge two different machines.
func TestMachineIdenticalEveryField(t *testing.T) {
	v := reflect.TypeOf(Machine{})
	for i := 0; i < v.NumField(); i++ {
		var m Machine
		f := reflect.ValueOf(&m).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("rr")
		case reflect.Map:
			m.Overrides = map[trace.ThreadID]Override{trace.MainThread: {}}
		default:
			t.Fatalf("field %s: kind %v not covered", v.Field(i).Name, f.Kind())
		}
		if m.identical(Machine{}) || (Machine{}).identical(m) {
			t.Errorf("field %s: a machine that sets it is identical to the zero machine", v.Field(i).Name)
		}
	}
	if !(Machine{}).identical(Machine{CPUs: 1}) {
		t.Error("defaults not applied: CPUs 0 and 1 are one machine")
	}
}
