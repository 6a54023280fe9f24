package analysis

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"vppb/internal/hb"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

func optimizeProfile(t *testing.T, name string, threads int, scale float64) (*trace.Profile, *hb.Analysis) {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Threads: threads, Scale: scale}), recorder.Options{Program: name})
	if err != nil {
		t.Fatal(err)
	}
	return analyzed(t, log)
}

// analyzed builds the profile and happens-before analysis of a log.
func analyzed(t *testing.T, log *trace.Log) (*trace.Profile, *hb.Analysis) {
	t.Helper()
	prof, err := trace.BuildProfile(log)
	if err != nil {
		t.Fatal(err)
	}
	a, err := hb.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	return prof, a
}

// TestOptimizeMatchesExhaustive is the sweep-soundness test: over
// workloads with very different parallelism bounds, the pruned sweep must
// return exactly the winner and exactly the per-candidate durations the
// exhaustive sweep computes. testdata/rand-4.log is seed 4 of the random
// programs internal/core's differential tests generate (genProgram): its
// replays beat hb's recorded mandatory chain, and a bound built on that
// chain pruned the true winner.
//
// The five SPLASH-2 analogues (8 threads, scale 0.5) also pin their
// pruned sweep in testdata/optimize_splash.golden: the winner and its
// duration, and how many candidates were simulated and pruned. A looser
// bound or a changed visiting order shows up there as a drift in the
// counts even when the winner survives.
func TestOptimizeMatchesExhaustive(t *testing.T) {
	cases := []struct {
		name     string
		workload string // defaults to name
		threads  int
		scale    float64
		log      string // recorded testdata log instead of a workload
		golden   bool   // pinned in optimizeGolden
	}{
		{name: "fft", threads: 8, scale: 0.25},
		{name: "prodcons", scale: 0.15},
		{name: "rand-4", log: "testdata/rand-4.log"},
		{name: "splash-ocean", workload: "ocean", threads: 8, scale: 0.5, golden: true},
		{name: "splash-waterspatial", workload: "waterspatial", threads: 8, scale: 0.5, golden: true},
		{name: "splash-fft", workload: "fft", threads: 8, scale: 0.5, golden: true},
		{name: "splash-radix", workload: "radix", threads: 8, scale: 0.5, golden: true},
		{name: "splash-lu", workload: "lu", threads: 8, scale: 0.5, golden: true},
	}
	golden := readGoldenLines(t, optimizeGolden)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var prof *trace.Profile
			var a *hb.Analysis
			if tc.log != "" {
				log, err := recorder.ReadFile(tc.log)
				if err != nil {
					t.Fatal(err)
				}
				prof, a = analyzed(t, log)
			} else {
				prof, a = optimizeProfile(t, cmp.Or(tc.workload, tc.name), tc.threads, tc.scale)
			}
			pruned, err := Optimize(context.Background(), prof, a, OptimizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			exh, err := Optimize(context.Background(), prof, a, OptimizeOptions{Exhaustive: true})
			if err != nil {
				t.Fatal(err)
			}
			if pruned.Winner.Policy != exh.Winner.Policy || pruned.Winner.CPUs != exh.Winner.CPUs {
				t.Fatalf("winner mismatch: pruned %s@%d vs exhaustive %s@%d",
					pruned.Winner.Policy, pruned.Winner.CPUs, exh.Winner.Policy, exh.Winner.CPUs)
			}
			if pruned.Winner.Duration != exh.Winner.Duration {
				t.Fatalf("winner duration mismatch: %v vs %v", pruned.Winner.Duration, exh.Winner.Duration)
			}
			if len(pruned.Candidates) != len(exh.Candidates) {
				t.Fatalf("grid size mismatch: %d vs %d", len(pruned.Candidates), len(exh.Candidates))
			}
			for i, pc := range pruned.Candidates {
				ec := exh.Candidates[i]
				if pc.Policy != ec.Policy || pc.CPUs != ec.CPUs {
					t.Fatalf("candidate %d order mismatch: %s@%d vs %s@%d", i, pc.Policy, pc.CPUs, ec.Policy, ec.CPUs)
				}
				if pc.Pruned {
					// The pruning proof: the bound must genuinely exceed the
					// configuration's true (exhaustively simulated) duration's
					// achievable best — verify lb > exhaustive duration is
					// consistent, i.e. the pruned candidate would have lost.
					if ec.Duration < pruned.Winner.Duration {
						t.Fatalf("pruned candidate %s@%d actually wins: %v < %v",
							pc.Policy, pc.CPUs, ec.Duration, pruned.Winner.Duration)
					}
					continue
				}
				if pc.Duration != ec.Duration || pc.Events != ec.Events {
					t.Fatalf("candidate %s@%d (reused %v) mismatch: %v/%d events vs %v/%d",
						pc.Policy, pc.CPUs, pc.Reused, pc.Duration, pc.Events, ec.Duration, ec.Events)
				}
			}
			if pruned.Simulated+pruned.Pruned != len(pruned.Candidates) || pruned.Reused > pruned.Simulated {
				t.Fatalf("accounting broken: %d simulated (%d reused) + %d pruned != %d candidates",
					pruned.Simulated, pruned.Reused, pruned.Pruned, len(pruned.Candidates))
			}
			if exh.Reused != 0 {
				t.Fatalf("the exhaustive sweep reused %d replays", exh.Reused)
			}
			t.Logf("%s: winner %s@%d in %v; %d simulated (%d reused), %d pruned",
				tc.name, pruned.Winner.Policy, pruned.Winner.CPUs, pruned.Winner.Duration,
				pruned.Simulated, pruned.Reused, pruned.Pruned)
			if !tc.golden {
				return
			}
			got := fmt.Sprintf("winner=%s@%d duration_us=%d candidates=%d simulated=%d pruned=%d reused=%d",
				pruned.Winner.Policy, pruned.Winner.CPUs, int64(pruned.Winner.Duration),
				len(pruned.Candidates), pruned.Simulated, pruned.Pruned, pruned.Reused)
			if *update {
				golden[tc.name] = got
			} else if want := golden[tc.name]; got != want {
				t.Errorf("%s drifted from %s (run with -update to accept):\ngot:  %s\nwant: %s",
					tc.name, optimizeGolden, got, want)
			}
		})
	}
	if *update {
		var b strings.Builder
		for _, tc := range cases {
			if line, ok := golden[tc.name]; ok {
				fmt.Fprintf(&b, "%s %s\n", tc.name, line)
			}
		}
		if err := os.WriteFile(optimizeGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const optimizeGolden = "testdata/optimize_splash.golden"

var update = flag.Bool("update", false, "rewrite the golden files")

// readGoldenLines reads a golden file of "name rest-of-line" lines into a
// map from name to the rest of its line.
func readGoldenLines(t *testing.T, path string) map[string]string {
	t.Helper()
	lines := map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil && !*update {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, rest, ok := strings.Cut(line, " "); ok {
			lines[name] = rest
		}
	}
	return lines
}

// TestOptimizePrunesBoundedWorkload pins that pruning actually fires where
// it should: prodcons is serialization-bound (its happens-before bound is
// far below 8), so small CPU counts are provably hopeless against the
// 8-CPU incumbent and must be skipped without simulation.
func TestOptimizePrunesBoundedWorkload(t *testing.T) {
	prof, a := optimizeProfile(t, "prodcons", 0, 0.15)
	res, err := Optimize(context.Background(), prof, a, OptimizeOptions{Policies: []string{"ts"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Fatalf("expected pruning on a serialization-bound workload (bound inputs: work=%v serial demand=%v):\n%+v",
			res.Work, res.SerialDemand, res.Candidates)
	}
	for _, c := range res.Candidates {
		if c.Pruned && c.LowerBound <= res.Winner.Duration {
			t.Fatalf("candidate %s@%d pruned without proof: lb %v <= winner %v", c.Policy, c.CPUs, c.LowerBound, res.Winner.Duration)
		}
	}
}

// TestOptimizeWithoutAnalysis keeps the sweep usable with pruning off: a
// nil analysis simulates the full grid and still picks the same winner.
func TestOptimizeWithoutAnalysis(t *testing.T) {
	prof, a := optimizeProfile(t, "fft", 8, 0.2)
	with, err := Optimize(context.Background(), prof, a, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Optimize(context.Background(), prof, nil, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if without.Pruned != 0 {
		t.Fatalf("nil analysis pruned %d candidates", without.Pruned)
	}
	if with.Winner.Policy != without.Winner.Policy || with.Winner.CPUs != without.Winner.CPUs ||
		with.Winner.Duration != without.Winner.Duration {
		t.Fatalf("winner differs with pruning: %+v vs %+v", with.Winner, without.Winner)
	}
}

// TestOptimizeCancellation aborts the sweep between candidates.
func TestOptimizeCancellation(t *testing.T) {
	prof, a := optimizeProfile(t, "fft", 8, 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(ctx, prof, a, OptimizeOptions{}); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}
