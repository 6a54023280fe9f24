package core_test

import (
	"maps"
	"testing"

	"vppb/internal/core"
	"vppb/internal/trace"
)

// TestDiscardTimelineIdentity pins the promise every prediction-only
// caller relies on: a replay that builds no timeline predicts exactly what
// a replay that builds one predicts — the same duration, event count and
// per-thread CPU time — for every Table 1 kernel, the oversubscribed
// 16-thread Ocean and the committed Go execution trace, under every
// policy and at every machine size the daemon's default grid asks for.
func TestDiscardTimelineIdentity(t *testing.T) {
	inputs := map[string]*trace.Profile{"go-mutexchan": gotraceProfile(t)}
	for _, app := range []string{"ocean", "waterspatial", "fft", "radix", "lu"} {
		inputs[app] = workloadProfile(t, app, 8, 0.3)
	}
	inputs["ocean_16t"] = workloadProfile(t, "ocean", 16, 0.3)

	for name, prof := range inputs {
		for _, policy := range []string{"ts", "fifo", "rr"} {
			for _, cpus := range []int{1, 2, 4, 8} {
				m := core.Machine{CPUs: cpus, Policy: policy}
				full, err := core.SimulateProfile(prof, m)
				if err != nil {
					t.Fatalf("%s %s %dp: %v", name, policy, cpus, err)
				}
				m.DiscardTimeline = true
				bare, err := core.SimulateProfile(prof, m)
				if err != nil {
					t.Fatalf("%s %s %dp without timeline: %v", name, policy, cpus, err)
				}
				if full.Timeline == nil || bare.Timeline != nil {
					t.Fatalf("%s %s %dp: timeline built = %v / %v, want true / false",
						name, policy, cpus, full.Timeline != nil, bare.Timeline != nil)
				}
				if bare.Duration != full.Duration || bare.Events != full.Events || !maps.Equal(bare.PerThreadCPU, full.PerThreadCPU) {
					t.Errorf("%s %s %dp: without timeline %v / %d events, with %v / %d events (per-thread CPU equal: %v)",
						name, policy, cpus, bare.Duration, bare.Events, full.Duration, full.Events,
						maps.Equal(bare.PerThreadCPU, full.PerThreadCPU))
				}
			}
		}
	}
}
