package core

import (
	"testing"

	"vppb/internal/sched"
)

// TestReplayCheckLinks replays generated programs, plain and
// oversubscribed, under every policy on 1, 2, 3 and 8 CPUs with a dynamic
// pool and with 2 LWPs, checking the scheduler core's links after every
// event (sched.DebugChecks): a broken link panics with the event stage it
// follows. It sets a package-wide flag, so it must not run in parallel.
func TestReplayCheckLinks(t *testing.T) {
	sched.DebugChecks = true
	t.Cleanup(func() { sched.DebugChecks = false })
	var machines []Machine
	for _, policy := range sched.Names() {
		for _, cpus := range []int{1, 2, 3, 8} {
			for _, lwps := range []int{0, 2} {
				machines = append(machines, Machine{CPUs: cpus, LWPs: lwps, Policy: policy, DiscardTimeline: true})
			}
		}
	}
	for _, oversubscribed := range []bool{false, true} {
		for seed := uint64(1); seed <= 100; seed++ {
			if _, err := SimulateMany(genProfile(t, seed, oversubscribed), machines); err != nil {
				t.Fatalf("seed %d (oversubscribed %v): %v", seed, oversubscribed, err)
			}
		}
	}
}
