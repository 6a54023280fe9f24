package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"vppb/internal/analysis"
	"vppb/internal/hb"
	"vppb/internal/recorder"
	"vppb/internal/sched"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// Experiment E13: the deployment sweep. "What should I deploy on?" means
// ranking every (policy × CPU count) configuration by predicted execution
// time from one monitored recording. The naive answer simulates the full
// grid; analysis.Optimize skips configurations whose happens-before lower
// bound already loses to the incumbent. This experiment measures
// both modes on the five SPLASH-2 analogues over the Table 1 grid and
// pins the wall-clock ratio (and winner equality) in
// results/BENCH_optimize.json, gated by the optimize-smoke CI job.

// OptimizeSweepRow is one workload's exhaustive-vs-optimized comparison.
type OptimizeSweepRow struct {
	// Workload names the recorded application.
	Workload string `json:"workload"`
	// Events is the probe-event count of one full simulation of the
	// recording (the winner configuration's).
	Events int64 `json:"events_per_sim"`
	// WinnerPolicy and WinnerCPUs are the best configuration, identical
	// between modes by construction (verified by WinnersMatch).
	WinnerPolicy string `json:"winner_policy"`
	WinnerCPUs   int    `json:"winner_cpus"`
	// Candidates, Simulated and Pruned account for the optimized sweep's
	// grid: every candidate is either simulated or proven hopeless.
	Candidates int `json:"candidates"`
	Simulated  int `json:"simulated"`
	Pruned     int `json:"pruned"`
	// Runs is how many timed sweeps of each mode the measurement averaged
	// over.
	Runs int `json:"runs"`
	// ExhaustiveSeconds and OptimizedSeconds are per-sweep wall times.
	ExhaustiveSeconds float64 `json:"exhaustive_seconds"`
	OptimizedSeconds  float64 `json:"optimized_seconds"`
	// Speedup is ExhaustiveSeconds / OptimizedSeconds.
	Speedup float64 `json:"speedup"`
	// WinnersMatch records the differential check: both modes returned the
	// same (policy, cpus, duration) winner.
	WinnersMatch bool `json:"winners_match"`
}

// OptimizeSweepResult is experiment E13.
type OptimizeSweepResult struct {
	Rows []OptimizeSweepRow `json:"rows"`
	// CPUCounts and Policies describe the swept grid.
	CPUCounts []int    `json:"cpu_counts"`
	Policies  []string `json:"policies"`
	// AggregateSpeedup is total exhaustive wall time over total optimized
	// wall time — the headline the CI gate checks.
	AggregateSpeedup float64 `json:"aggregate_speedup"`
	// AllWinnersMatch is the conjunction of every row's WinnersMatch.
	AllWinnersMatch bool   `json:"all_winners_match"`
	Report          string `json:"-"`
}

// optimizeSweepMinTime is how long each mode of each row is measured;
// enough sweeps run to fill it (at least optimizeSweepMinRuns).
const (
	optimizeSweepMinTime = 250 * time.Millisecond
	optimizeSweepMinRuns = 2
)

// OptimizeSweep measures the optimized deployment sweep against the
// exhaustive baseline for every SPLASH-2 analogue, sequentially (a timing
// experiment must not share the machine with its own siblings). The
// happens-before analysis runs once per workload, outside both timed
// regions — both modes would need it equally in production, and the
// experiment isolates the sweep itself.
func OptimizeSweep(opts Options) (*OptimizeSweepResult, error) {
	opts = opts.normalized()
	grid := analysis.OptimizeOptions{}
	res := &OptimizeSweepResult{AllWinnersMatch: true}
	for _, name := range workloads.Splash() {
		row, err := optimizeSweepRow(name, opts, grid)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
		res.AllWinnersMatch = res.AllWinnersMatch && row.WinnersMatch
	}
	var exhTotal, optTotal float64
	for _, r := range res.Rows {
		exhTotal += r.ExhaustiveSeconds
		optTotal += r.OptimizedSeconds
	}
	if optTotal > 0 {
		res.AggregateSpeedup = exhTotal / optTotal
	}
	// Echo the grid the sweep ran (the defaults analysis.Optimize resolves).
	res.CPUCounts = analysis.DefaultOptimizeCPUs
	res.Policies = sched.Names()
	res.Report = formatOptimizeSweep(res)
	return res, nil
}

func optimizeSweepRow(name string, opts Options, grid analysis.OptimizeOptions) (*OptimizeSweepRow, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	prm := workloads.Params{Threads: 8, Scale: opts.Scale}
	log, _, err := recorder.Record(w.Bind(prm), recorder.Options{Program: w.Name, Policy: opts.Policy})
	if err != nil {
		return nil, fmt.Errorf("experiments: optimize recording of %s: %w", name, err)
	}
	prof, err := trace.BuildProfile(log)
	if err != nil {
		return nil, err
	}
	a, err := hb.Analyze(log)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Warm runs: faults surface here, both modes' winners are compared,
	// and the timed loops below start from a steady heap.
	optRes, err := analysis.Optimize(ctx, prof, a, grid)
	if err != nil {
		return nil, fmt.Errorf("experiments: optimize sweep of %s: %w", name, err)
	}
	exhGrid := grid
	exhGrid.Exhaustive = true
	exhRes, err := analysis.Optimize(ctx, prof, a, exhGrid)
	if err != nil {
		return nil, fmt.Errorf("experiments: exhaustive sweep of %s: %w", name, err)
	}

	optSec, optRuns, err := timeSweep(ctx, prof, a, grid)
	if err != nil {
		return nil, err
	}
	exhSec, _, err := timeSweep(ctx, prof, a, exhGrid)
	if err != nil {
		return nil, err
	}

	row := &OptimizeSweepRow{
		Workload:          name,
		Events:            exhRes.Winner.Events,
		WinnerPolicy:      optRes.Winner.Policy,
		WinnerCPUs:        optRes.Winner.CPUs,
		Candidates:        len(optRes.Candidates),
		Simulated:         optRes.Simulated,
		Pruned:            optRes.Pruned,
		Runs:              optRuns,
		ExhaustiveSeconds: exhSec,
		OptimizedSeconds:  optSec,
		WinnersMatch: optRes.Winner.Policy == exhRes.Winner.Policy &&
			optRes.Winner.CPUs == exhRes.Winner.CPUs &&
			optRes.Winner.Duration == exhRes.Winner.Duration,
	}
	if optSec > 0 {
		row.Speedup = exhSec / optSec
	}
	return row, nil
}

// timeSweep runs the sweep repeatedly for at least optimizeSweepMinTime
// and returns the average per-sweep wall time.
func timeSweep(ctx context.Context, prof *trace.Profile, a *hb.Analysis, grid analysis.OptimizeOptions) (float64, int, error) {
	runs := 0
	started := time.Now()
	for elapsed := time.Duration(0); elapsed < optimizeSweepMinTime || runs < optimizeSweepMinRuns; elapsed = time.Since(started) {
		if _, err := analysis.Optimize(ctx, prof, a, grid); err != nil {
			return 0, 0, err
		}
		runs++
	}
	return time.Since(started).Seconds() / float64(runs), runs, nil
}

func formatOptimizeSweep(res *OptimizeSweepResult) string {
	var b strings.Builder
	b.WriteString("Deployment sweep: exhaustive vs bound-pruned (grid = ")
	fmt.Fprintf(&b, "%v CPUs x %v)\n\n", res.CPUCounts, res.Policies)
	fmt.Fprintf(&b, "%-14s %10s %5s %5s %7s %12s %12s %8s %6s\n",
		"workload", "winner", "cand", "sim", "pruned", "exhaust(s)", "optimized(s)", "speedup", "match")
	for _, r := range res.Rows {
		match := "yes"
		if !r.WinnersMatch {
			match = "NO"
		}
		fmt.Fprintf(&b, "%-14s %7s@%-2d %5d %5d %7d %12.4f %12.4f %7.2fx %6s\n",
			r.Workload, r.WinnerPolicy, r.WinnerCPUs, r.Candidates, r.Simulated, r.Pruned,
			r.ExhaustiveSeconds, r.OptimizedSeconds, r.Speedup, match)
	}
	fmt.Fprintf(&b, "\naggregate speedup = %.2fx, all winners match = %v\n",
		res.AggregateSpeedup, res.AllWinnersMatch)
	return b.String()
}
