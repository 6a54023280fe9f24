package analysis

import (
	"context"
	"fmt"
	"sort"

	"vppb/internal/core"
	"vppb/internal/hb"
	"vppb/internal/sched"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// Optimize answers "what should I deploy on?" in one call: it ranks every
// (policy × CPU count) configuration of a grid by predicted execution
// time, and skips the configurations the happens-before analysis proves
// cannot win. lb(c) = max(SerialDemand, Work/c) is a lower bound on any
// c-CPU replay: SerialDemand is the summed exclusive time of the busiest
// synchronization object, which no schedule overlaps with itself, and
// Work/c is the pigeonhole limit of c processors; the simulator only ever
// adds overhead (communication delay, queueing, slicing) on top. A
// candidate whose lower bound already exceeds the incumbent's simulated
// duration strictly cannot win and is never simulated.
//
// The bound leaves out hb's mandatory chain: the chain follows the
// recording's semaphore post → wait and condition signal → wake pairing,
// and a replay may pair them differently and finish sooner (see the hb
// package comment).
//
// Pruning cannot change the winner: candidates are visited in a fixed
// order (policies as given, CPU counts descending) and the winner is the
// first candidate with the minimum duration; a pruned candidate's true
// duration exceeds the incumbent's strictly, so it neither beats nor ties
// any earlier candidate. TestOptimizeMatchesExhaustive verifies winner
// equality against the exhaustive sweep differentially.

// DefaultOptimizeCPUs is the CPU grid when OptimizeOptions.CPUCounts is
// empty — the paper's Table 1 processor counts.
var DefaultOptimizeCPUs = []int{1, 2, 4, 8}

// OptimizeOptions configures an Optimize sweep.
type OptimizeOptions struct {
	// CPUCounts is the CPU grid; empty means DefaultOptimizeCPUs. The list
	// is deduplicated and swept in descending order.
	CPUCounts []int
	// Policies is the scheduling-policy grid; empty means every registered
	// policy (sched.Names()).
	Policies []string
	// Exhaustive disables bound pruning: every candidate is simulated.
	// It is the reference the pruned sweep must agree with
	// (TestOptimizeMatchesExhaustive, ?exhaustive=true on the daemon).
	Exhaustive bool
	// MaxSimEvents bounds each candidate simulation (0 = unlimited); a
	// candidate exceeding it aborts the sweep with the budget error.
	MaxSimEvents int64
}

// Candidate is one configuration's outcome in an Optimize sweep.
type Candidate struct {
	Policy string `json:"policy"`
	CPUs   int    `json:"cpus"`
	// Duration is the predicted execution time; zero when Pruned.
	Duration vtime.Duration `json:"duration"`
	// LowerBound is lb(c) = max(SerialDemand, Work/c), the proof a pruned
	// candidate cannot win (zero when no analysis was supplied).
	LowerBound vtime.Duration `json:"lower_bound"`
	Pruned     bool           `json:"pruned"`
	// Events is the simulation's probe-event count; zero when Pruned.
	Events int64 `json:"events"`
}

// OptimizeResult is the ranked outcome of an Optimize sweep.
type OptimizeResult struct {
	// Candidates lists every grid point in sweep order (policies as given,
	// CPU counts descending).
	Candidates []Candidate `json:"candidates"`
	// Winner is the best configuration: minimum predicted duration, ties
	// resolved by sweep order.
	Winner Candidate `json:"winner"`
	// Simulated and Pruned count the grid points that were simulated
	// versus proven hopeless by their lower bound.
	Simulated int `json:"simulated"`
	Pruned    int `json:"pruned"`
	// Work and SerialDemand echo the pruning inputs (zero when no analysis
	// was supplied).
	Work         vtime.Duration `json:"work"`
	SerialDemand vtime.Duration `json:"serial_demand"`
}

// lowerBoundAt is lb(c): no c-CPU machine finishes the program faster.
func lowerBoundAt(a *hb.Analysis, cpus int) vtime.Duration {
	if a == nil || cpus <= 0 {
		return 0
	}
	lb := a.SerialDemand
	if byWork := vtime.Duration(int64(a.Work) / int64(cpus)); byWork > lb {
		lb = byWork
	}
	return lb
}

// Optimize sweeps the (policy × CPU) grid over one behaviour profile.
// hbA supplies the pruning bounds (typically hb.Analyze of the profile's
// log); nil disables pruning. The context is checked between candidates:
// cancellation aborts the sweep with ctx's error.
func Optimize(ctx context.Context, prof *trace.Profile, hbA *hb.Analysis, opts OptimizeOptions) (*OptimizeResult, error) {
	cpus := normalizeCPUs(opts.CPUCounts)
	if len(cpus) == 0 {
		return nil, fmt.Errorf("analysis: optimize needs at least one positive CPU count")
	}
	policies := opts.Policies
	if len(policies) == 0 {
		policies = sched.Names()
	}
	res := &OptimizeResult{Candidates: make([]Candidate, 0, len(cpus)*len(policies))}
	if hbA != nil {
		res.Work = hbA.Work
		res.SerialDemand = hbA.SerialDemand
	}

	var incumbent *Candidate // best simulated so far, in sweep order
	for _, policy := range policies {
		for _, c := range cpus {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cand := Candidate{Policy: policy, CPUs: c, LowerBound: lowerBoundAt(hbA, c)}
			if !opts.Exhaustive && incumbent != nil && cand.LowerBound > incumbent.Duration {
				cand.Pruned = true
				res.Pruned++
				res.Candidates = append(res.Candidates, cand)
				continue
			}
			r, err := core.SimulateProfile(prof, core.Machine{CPUs: c, Policy: policy, DiscardTimeline: true, MaxSimEvents: opts.MaxSimEvents})
			if err != nil {
				return nil, err
			}
			cand.Duration = r.Duration
			cand.Events = r.Events
			res.Simulated++
			res.Candidates = append(res.Candidates, cand)
			if incumbent == nil || cand.Duration < incumbent.Duration {
				incumbent = &res.Candidates[len(res.Candidates)-1]
			}
		}
	}
	if incumbent == nil {
		return nil, fmt.Errorf("analysis: optimize simulated no candidates")
	}
	res.Winner = *incumbent
	return res, nil
}

// normalizeCPUs dedupes and sorts the grid descending, dropping
// non-positive entries.
func normalizeCPUs(in []int) []int {
	seen := make(map[int]bool, len(in))
	var out []int
	src := in
	if len(src) == 0 {
		src = DefaultOptimizeCPUs
	}
	for _, c := range src {
		if c > 0 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
