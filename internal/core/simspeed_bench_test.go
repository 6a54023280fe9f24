package core_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"vppb/internal/core"
	"vppb/internal/ingest"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// BenchmarkSimEvents measures raw simulator replay throughput — simulated
// probe events per second — over small, medium and large behaviour
// profiles from both frontends (vppb recordings of the Table 1 workloads
// and the committed `go tool trace` capture). The profile is built once
// per benchmark; each iteration is one full SimulateProfile, the unit
// vppb-serve pays per prediction. It is for profiling the replay loop;
// it gates nothing. Speed comparisons between commits belong to the
// interleaved A/B pairs of benchmark/ (benchmark/README.md).

// benchProfile records a workload once and caches its profile.
var benchProfiles sync.Map // key string -> *trace.Profile

func workloadProfile(b testing.TB, app string, threads int, scale float64) *trace.Profile {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%g", app, threads, scale)
	if p, ok := benchProfiles.Load(key); ok {
		return p.(*trace.Profile)
	}
	w, err := workloads.Get(app)
	if err != nil {
		b.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Threads: threads, Scale: scale}), recorder.Options{Program: w.Name})
	if err != nil {
		b.Fatal(err)
	}
	prof, err := trace.BuildProfile(log)
	if err != nil {
		b.Fatal(err)
	}
	benchProfiles.Store(key, prof)
	return prof
}

func gotraceProfile(b testing.TB) *trace.Profile {
	b.Helper()
	const key = "gotrace/go-mutexchan"
	if p, ok := benchProfiles.Load(key); ok {
		return p.(*trace.Profile)
	}
	raw, err := os.ReadFile("../gotrace/testdata/go-mutexchan.trace")
	if err != nil {
		b.Fatal(err)
	}
	log, err := ingest.Decode(raw, ingest.FormatAuto, "")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := trace.BuildProfile(log)
	if err != nil {
		b.Fatal(err)
	}
	benchProfiles.Store(key, prof)
	return prof
}

// benchSim replays one profile b.N times and reports events/sec and
// allocs/event.
func benchSim(b *testing.B, prof *trace.Profile, m core.Machine) {
	b.Helper()
	res, err := core.SimulateProfile(prof, m)
	if err != nil {
		b.Fatal(err)
	}
	events := res.Events
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SimulateProfile(prof, m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := float64(events) * float64(b.N)
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(total/sec, "events/sec")
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkSimEvents(b *testing.B) {
	cases := []struct {
		name    string
		app     string
		threads int
		scale   float64
		cpus    int
	}{
		// small: the paper's running example.
		{"small_example_2p", "example", 2, 1.0, 2},
		// medium: two Table 1 kernels at the paper's headline size.
		{"medium_fft_8p", "fft", 8, 1.0, 8},
		{"medium_radix_8p", "radix", 8, 1.0, 8},
		// large: the lock-heavy Table 1 kernels scaled up.
		{"large_ocean_8p", "ocean", 8, 3.0, 8},
		{"large_lu_8p", "lu", 8, 3.0, 8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchSim(b, workloadProfile(b, c.app, c.threads, c.scale), core.Machine{CPUs: c.cpus})
		})
	}
	b.Run("gotrace_mutexchan_4p", func(b *testing.B) {
		benchSim(b, gotraceProfile(b), core.Machine{CPUs: 4})
	})
	// oversubscribed: 16 Ocean threads on 8 CPUs, prediction-only, under the
	// two policies vppb-serve's predict traffic mixes. Profile this case to
	// attribute the per-event cost of an oversubscribed machine.
	for _, pol := range []string{"ts", "rr"} {
		b.Run("oversub_ocean16t_8p_"+pol, func(b *testing.B) {
			benchSim(b, workloadProfile(b, "ocean", 16, 1.0), core.Machine{CPUs: 8, Policy: pol, DiscardTimeline: true})
		})
	}
}
