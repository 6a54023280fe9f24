package core

import (
	"sync"
	"testing"

	"vppb/internal/recorder"
	"vppb/internal/sched"
	"vppb/internal/vtime"
)

// TestThreadTransitions checks both engines against the state machine
// sched writes down as a table: every program of TestEngineGolden, and
// the suspend of a wake-pending thread, is recorded and replayed at 1, 2
// and 4 CPUs with and without a communication delay, while an observer
// on sched.ThreadNode.To collects every (from, to) move. Each move must
// be legal, and each legal move must be made at least once, so the table
// is no looser than the engines. The one state change that bypasses To,
// threadlib's teardown of a failed run, never happens here.
func TestThreadTransitions(t *testing.T) {
	type move struct{ from, to sched.State }
	var mu sync.Mutex
	seen := map[move]int{}
	stop := sched.ObserveTransitions(func(from, to sched.State) {
		mu.Lock()
		seen[move{from, to}]++
		mu.Unlock()
	})
	defer stop()

	progs := append([]engineProgram(nil), enginePrograms...)
	progs = append(progs, engineProgram{name: "suspend-delayed-wake", setup: suspendDelayedWakeProg})
	for _, prog := range progs {
		for _, policy := range []string{"ts", "fifo", "rr"} {
			log, _, err := recorder.Record(prog.setup, recorder.Options{Program: prog.name, Policy: policy})
			if err != nil {
				t.Fatalf("%s %s: record: %v", prog.name, policy, err)
			}
			for _, cpus := range []int{1, 2, 4} {
				for _, delay := range []vtime.Duration{0, vtime.Millisecond} {
					m := Machine{CPUs: cpus, CommDelay: delay, Policy: policy}
					if _, err := Simulate(log, m); err != nil {
						t.Fatalf("%s %s: replay cpus=%d delay=%v: %v", prog.name, policy, cpus, delay, err)
					}
				}
			}
		}
	}
	stop()

	for mv, n := range seen {
		if !sched.Legal(mv.from, mv.to) {
			t.Errorf("illegal transition %v -> %v made %d times", mv.from, mv.to, n)
		}
	}
	for from := sched.NotStarted; from <= sched.Zombie; from++ {
		for to := sched.NotStarted; to <= sched.Zombie; to++ {
			if sched.Legal(from, to) && seen[move{from, to}] == 0 {
				t.Errorf("legal transition %v -> %v never made", from, to)
			}
		}
	}
}
