// Package core implements the VPPB Simulator — the paper's primary
// contribution. Starting from the behaviour profile of a monitored
// uni-processor execution (trace.BuildProfile), it replays every thread's
// sequence of CPU bursts and thread-library calls on a simulated
// multiprocessor: N CPUs, a configurable number of LWPs, Solaris TS-class
// priorities with time slicing, and an inter-CPU communication delay.
//
// The semantic rules follow sections 3.2 and 6 of the paper:
//
//   - mutex_trylock / sema_trywait follow their recorded outcome: a try
//     operation that succeeded in the log is simulated as a blocking
//     acquire, one that failed is a no-op;
//   - cond_timedwait that timed out in the log is simulated as a delay of
//     its timeout; otherwise it is an ordinary cond_wait;
//   - cond_broadcast applies the barrier fix: if fewer threads are waiting
//     on the condition than the broadcast released in the recording, the
//     broadcaster blocks until that many have arrived, and the last
//     arrival releases everyone;
//   - a wildcard thr_join completes on the first exit in the simulation,
//     which may differ from the recording;
//   - creating a bound thread costs 6.7 times an unbound creation, and
//     synchronization by bound threads 5.9 times unbound synchronization;
//   - the simulator deliberately models neither caches nor LWP context
//     switch overhead — the paper's stated sources of prediction error.
package core

import (
	"context"
	"fmt"
	"slices"

	"vppb/internal/par"
	"vppb/internal/sched"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// Binding selects how a simulated thread is attached to LWPs and CPUs,
// overriding the recording ("each thread can individually be unbound,
// bound to a LWP, or bound to a certain CPU", paper section 3.2).
type Binding uint8

// Bindings.
const (
	// BindAsRecorded keeps the thread's recorded binding.
	BindAsRecorded Binding = iota
	// BindUnbound multiplexes the thread on the LWP pool.
	BindUnbound
	// BindLWP gives the thread a dedicated LWP.
	BindLWP
	// BindCPU gives the thread a dedicated LWP pinned to Override.CPU.
	BindCPU
)

// Override adjusts one thread's scheduling in the simulation.
type Override struct {
	// Binding replaces the thread's recorded binding.
	Binding Binding
	// CPU is the processor for BindCPU.
	CPU int
	// Priority, when non-nil, pins the thread's priority; thr_setprio
	// events for the thread are then ignored (paper section 3.2).
	Priority *int
}

// Machine is the simulated hardware and scheduling configuration —
// artifacts (e) and (f) of the paper's figure 1.
type Machine struct {
	// CPUs is the number of processors (0 means 1).
	CPUs int
	// LWPs fixes the LWP pool; thr_setconcurrency is then ignored.
	// 0 sizes the pool to the CPU count and honours thr_setconcurrency.
	LWPs int
	// CommDelay is how long an event on one CPU takes to propagate to
	// another CPU: a thread woken from a different CPU than it last ran
	// on becomes runnable only after this delay.
	CommDelay vtime.Duration
	// NoPreemption disables priority preemption of running LWPs.
	NoPreemption bool
	// Policy selects the scheduling discipline by its internal/sched
	// registry name. Empty means the default Solaris TS class ("ts").
	// Predictions are only faithful when the policy matches the machine
	// the trace was recorded on; other policies answer what-if questions.
	Policy string
	// BoundCreateFactor and BoundSyncFactor are the bound-thread cost
	// ratios; zero values mean the paper's 6.7 and 5.9.
	BoundCreateFactor float64
	BoundSyncFactor   float64
	// Overrides adjusts individual threads.
	Overrides map[trace.ThreadID]Override

	// DiscardTimeline skips assembling the per-thread Timeline:
	// Result.Timeline is nil, while Duration, PerThreadCPU and Events are
	// byte-identical to a recording run (TestDiscardTimelineIdentity).
	// Callers that only need the predicted time avoid the dominant
	// allocation cost of a simulation: vppb-serve's /v1/predict and
	// /v1/optimize (analysis.Optimize), vppb-sim's sweep points, its
	// uniprocessor baseline and, unless a report needs the timeline, its
	// main prediction, and vppb.PredictSpeedup. The renderings and timeline
	// reports (/v1/view.*, vppb-view, vppb-analyze -flow, vppb-sim
	// -timeline and its reports) keep it.
	DiscardTimeline bool

	// Guardrails: budgets that terminate a runaway simulation of a
	// corrupt or repaired log with a structured diagnostic.

	// MaxSimEvents aborts the run after this many simulated probe events
	// with a *BudgetError (0 = unlimited).
	MaxSimEvents int64
	// MaxVirtualTime aborts the run once simulated time exceeds this
	// budget with a *BudgetError (0 = unlimited).
	MaxVirtualTime vtime.Duration
	// LivelockWindow aborts with a *LivelockError when this many queue
	// dispatches occur without virtual time advancing. 0 selects the
	// default of 1,000,000; negative disables the check.
	LivelockWindow int
}

// MaxCPUs bounds every simulated machine: its CPU count, its LWP pool
// (Machine.LWPs) and the pool a recorded thr_setconcurrency may grow. It
// is the scheduler core's limit, shared with the recorder. Simulate fails
// with an error above it.
const MaxCPUs = sched.MaxCPUs

// DefaultLivelockWindow is the dispatch budget per virtual-time instant
// when Machine.LivelockWindow is 0. Legitimate replays dispatch at most a
// handful of events per instant per thread, so a million same-instant
// dispatches means the replay is spinning.
const DefaultLivelockWindow = 1_000_000

func (m Machine) withDefaults() Machine {
	if m.CPUs <= 0 {
		m.CPUs = 1
	}
	if m.BoundCreateFactor == 0 {
		m.BoundCreateFactor = 6.7
	}
	if m.BoundSyncFactor == 0 {
		m.BoundSyncFactor = 5.9
	}
	switch {
	case m.LivelockWindow == 0:
		m.LivelockWindow = DefaultLivelockWindow
	case m.LivelockWindow < 0:
		m.LivelockWindow = 0
	}
	return m
}

// Result describes a predicted execution — artifact (g) of figure 1.
type Result struct {
	// Machine echoes the simulated configuration.
	Machine Machine
	// Duration is the predicted execution time.
	Duration vtime.Duration
	// Timeline is the predicted execution for the Visualizer.
	Timeline *trace.Timeline
	// PerThreadCPU is the CPU time each thread consumed.
	PerThreadCPU map[trace.ThreadID]vtime.Duration
	// Events is the number of simulated probe events placed.
	Events int64
	// PeakRunning is the most CPUs the replay kept busy at once; a thread
	// bound to a CPU counts every CPU up to its own (sched.Core.PeakRunning).
	PeakRunning int
	// Contended reports whether anything in the replay waited for a CPU or
	// an LWP, or took the CPU it is bound to ahead of another queued LWP
	// that may run there (sched.Core.Contended).
	Contended bool
}

// StandsFor reports whether r is also the replay of machine m, so that m
// need not be replayed. It holds when r never contended, m has at least
// PeakRunning CPUs, and m differs from r's machine only in its policy and
// CPU count, on a machine with no communication delay, no overrides and
// no timeline.
//
// A replay that never contended placed every runnable LWP the instant it
// became runnable, on the lowest idle CPU it may run on, so neither the
// policy's priorities and quanta nor CPUs past the peak decided when any
// thread ran. A thread bound to a CPU that took it ahead of another
// queued LWP counts as contention: with other LWP priorities, from
// another policy or from a dynamic pool of another size, the other LWP
// takes the CPU and the bound thread waits. The policy does decide the
// order in which several LWPs made runnable in one instant take their
// CPUs. Without a communication delay
// which CPU a thread runs on changes nothing, but with one it moves later
// wake times, so a delay rules reuse out (TestReuseMatchesReplay pins a
// program where it would be wrong). The timeline and the overrides name
// CPUs and LWPs, which may differ.
func (r *Result) StandsFor(m Machine) bool {
	rm := r.Machine
	if r.Contended || rm.CommDelay != 0 || len(rm.Overrides) > 0 || !rm.DiscardTimeline {
		return false
	}
	m = m.withDefaults()
	if m.CPUs < r.PeakRunning || m.CPUs > MaxCPUs || !sched.Known(m.Policy) {
		return false
	}
	m.CPUs, m.Policy = rm.CPUs, rm.Policy
	return m.identical(rm)
}

// identical reports whether m and o configure the same replay: neither
// overrides a thread and every other field is equal once defaults apply.
func (m Machine) identical(o Machine) bool {
	if len(m.Overrides) > 0 || len(o.Overrides) > 0 {
		return false
	}
	m, o = m.withDefaults(), o.withDefaults()
	return m.CPUs == o.CPUs && m.LWPs == o.LWPs && m.CommDelay == o.CommDelay &&
		m.NoPreemption == o.NoPreemption && m.Policy == o.Policy &&
		m.BoundCreateFactor == o.BoundCreateFactor && m.BoundSyncFactor == o.BoundSyncFactor &&
		m.DiscardTimeline == o.DiscardTimeline && m.MaxSimEvents == o.MaxSimEvents &&
		m.MaxVirtualTime == o.MaxVirtualTime && m.LivelockWindow == o.LivelockWindow
}

// Uniprocessor returns the one-processor variant of m that serves as the
// baseline of every speed-up: identical in every non-CPU parameter (LWP
// pool, communication delay, preemption, overrides, guard budgets), so
// predicted speed-ups compare two runs of the same machine that differ
// only in processor count.
func (m Machine) Uniprocessor() Machine {
	m.CPUs = 1
	return m
}

// Simulate predicts the execution of a recorded program on machine m.
func Simulate(log *trace.Log, m Machine) (*Result, error) {
	prof, err := trace.BuildProfile(log)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return SimulateProfile(prof, m)
}

// SimulateProfile predicts the execution of a behaviour profile on machine
// m. The profile's log supplies the thread and object tables. The profile
// is only read, never written: any number of SimulateProfile calls may
// share one profile concurrently.
func SimulateProfile(prof *trace.Profile, m Machine) (*Result, error) {
	s, err := newSim(prof, m.withDefaults())
	if err != nil {
		return nil, err
	}
	return s.run()
}

// SimulateMany predicts one profile on several machines concurrently,
// using a bounded worker pool (one worker per available processor).
// Results arrive in machine order regardless of completion order, and the
// returned error is the lowest-index failure, so output is byte-for-byte
// what a sequential loop would produce. Identical machines (equal in every
// field once defaults apply, neither with overrides) replay once and share
// one *Result: a speed-up grid's uniprocessor baseline and its 1-CPU point
// are one replay.
func SimulateMany(prof *trace.Profile, machines []Machine) ([]*Result, error) {
	return SimulateManyCtx(context.Background(), prof, machines)
}

// SimulateManyCtx is SimulateMany under a context: when ctx is cancelled
// (for example a serving deadline), machines not yet started are skipped
// and ctx's error is returned. A simulation already running completes —
// bound its worst case with Machine.MaxSimEvents / MaxVirtualTime, which
// cap simulated work independently of wall-clock time.
func SimulateManyCtx(ctx context.Context, prof *trace.Profile, machines []Machine) ([]*Result, error) {
	// distinct holds the first index of each distinct machine, ascending,
	// and machine i takes the replay of distinct[class[i]]. A failing
	// machine's first index is its lowest, so the lowest-index failure
	// among the distinct replays is the lowest-index failure overall.
	class := make([]int, len(machines))
	var distinct []int
	for i, m := range machines {
		class[i] = slices.IndexFunc(distinct, func(j int) bool { return machines[j].identical(m) })
		if class[i] < 0 {
			class[i] = len(distinct)
			distinct = append(distinct, i)
		}
	}
	replays := make([]*Result, len(distinct))
	err := par.ForEachCtx(ctx, len(distinct), 0, func(k int) error {
		res, err := SimulateProfile(prof, machines[distinct[k]])
		if err != nil {
			return err
		}
		replays[k] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(machines))
	for i, k := range class {
		results[i] = replays[k]
	}
	return results, nil
}
