// Package threadlib is the execution substrate of the VPPB reproduction: a
// deterministic, virtual-time implementation of the Solaris 2.x two-level
// thread model. Programs are ordinary Go functions written against a
// Solaris-style API (thr_create/thr_join, mutexes, semaphores, condition
// variables, reader/writer locks); the kernel multiplexes unbound threads
// over LWPs and LWPs over simulated CPUs with priorities and time slices
// from the TS dispatch table.
//
// Each program thread's body is a coroutine that yields to the kernel at
// every thread-library call, so exactly one body executes at any host
// instant and runs are fully deterministic. Computation is declared in
// virtual time with Thread.Compute; the kernel divides declared bursts
// across dispatches, time-slice expiries and preemptions without
// re-entering user code.
//
// The same kernel serves two roles in the reproduction:
//
//   - configured with 1 CPU and 1 LWP plus a recorder hook, it is the
//     monitored uni-processor execution of the paper's figure 1;
//   - configured with N CPUs plus the reality effects the trace-driven
//     Simulator deliberately ignores (LWP context-switch cost, cache
//     migration penalty, per-run jitter), it is the "real multiprocessor
//     execution" the paper validates against in Table 1.
package threadlib

import (
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// CostModel sets the virtual CPU cost of thread-library operations and the
// substrate's reality effects. The bound-thread factors come straight from
// the paper (section 3.2): creating a bound thread is 6.7 times more
// expensive than an unbound one, and synchronization through a bound
// thread is 5.9 times more expensive.
type CostModel struct {
	// Create is the cost of thr_create for an unbound thread.
	Create vtime.Duration
	// BoundCreateFactor scales Create when the new thread is bound.
	BoundCreateFactor float64
	// Mutex, Sema, Cond and RWLock are the per-operation costs of the
	// respective primitives for unbound callers.
	Mutex  vtime.Duration
	Sema   vtime.Duration
	Cond   vtime.Duration
	RWLock vtime.Duration
	// BoundSyncFactor scales synchronization costs for bound callers.
	BoundSyncFactor float64
	// Join, Yield and SetPrio are the costs of the remaining calls.
	Join    vtime.Duration
	Yield   vtime.Duration
	SetPrio vtime.Duration
	// IO is the CPU cost of issuing an I/O request (the service time
	// itself consumes no CPU).
	IO vtime.Duration
	// ContextSwitch is charged when a CPU starts running a different LWP
	// or an LWP switches user threads. The trace-driven Simulator does
	// not model it (paper section 6), making it a prediction error source.
	ContextSwitch vtime.Duration
	// Migration is charged when a thread resumes on a CPU different from
	// the one it last ran on, standing in for the cache-content movement
	// the paper describes (section 3.2). Also unmodelled by the Simulator.
	Migration vtime.Duration
	// Probe is the cost of one recorder probe firing; charged only while
	// a hook is attached. This is the recording intrusion measured in the
	// paper's section 4 (at most 2.6 % of execution time).
	Probe vtime.Duration
}

// DefaultCosts returns the cost model used throughout the reproduction.
// Magnitudes are chosen to be plausible for mid-1990s SPARC hardware; the
// bound factors are the paper's measured ratios.
func DefaultCosts() CostModel {
	return CostModel{
		Create:            60 * vtime.Microsecond,
		BoundCreateFactor: 6.7,
		Mutex:             2 * vtime.Microsecond,
		Sema:              4 * vtime.Microsecond,
		Cond:              5 * vtime.Microsecond,
		RWLock:            4 * vtime.Microsecond,
		BoundSyncFactor:   5.9,
		Join:              8 * vtime.Microsecond,
		Yield:             5 * vtime.Microsecond,
		SetPrio:           3 * vtime.Microsecond,
		IO:                12 * vtime.Microsecond,
		ContextSwitch:     25 * vtime.Microsecond,
		Migration:         60 * vtime.Microsecond,
		Probe:             40 * vtime.Microsecond,
	}
}

// call returns the base cost of a library call for an unbound caller.
func (c *CostModel) call(k trace.Call) vtime.Duration {
	switch k {
	case trace.CallThrCreate:
		return c.Create
	case trace.CallMutexLock, trace.CallMutexTryLock, trace.CallMutexUnlock:
		return c.Mutex
	case trace.CallSemaWait, trace.CallSemaTryWait, trace.CallSemaPost:
		return c.Sema
	case trace.CallCondWait, trace.CallCondTimedWait, trace.CallCondSignal, trace.CallCondBroadcast:
		return c.Cond
	case trace.CallRWRdLock, trace.CallRWWrLock, trace.CallRWUnlock:
		return c.RWLock
	case trace.CallThrJoin:
		return c.Join
	case trace.CallThrYield:
		return c.Yield
	case trace.CallThrSetPrio, trace.CallThrSetConcurrency,
		trace.CallThrSuspend, trace.CallThrContinue:
		return c.SetPrio
	case trace.CallIO:
		return c.IO
	}
	return 0
}

// Hook receives the kernel's instrumentation stream. The Recorder is the
// only production implementation; tests attach their own.
//
// Hook methods are never called concurrently.
type Hook interface {
	// HandleEvent is called at every probe firing.
	HandleEvent(ev trace.Event)
	// HandleThread is called when a thread starts (including main).
	HandleThread(info trace.ThreadInfo)
	// HandleObject is called when a synchronization object is created.
	HandleObject(info trace.ObjectInfo)
}

// Config parameterizes a Process.
type Config struct {
	// Program names the run in timelines and recordings.
	Program string
	// CPUs is the number of processors; 0 means 1.
	CPUs int
	// LWPs fixes the size of the LWP pool for unbound threads. When > 0,
	// thr_setconcurrency has no effect, exactly as when the VPPB user
	// overrides the LWP count (paper section 3.2). 0 starts with one LWP
	// and honours thr_setconcurrency.
	LWPs int
	// NoPreemption disables priority preemption of running LWPs.
	NoPreemption bool
	// Policy selects the scheduling discipline by its internal/sched
	// registry name. Empty means the default Solaris TS class ("ts").
	// An unknown name surfaces as an error from Run.
	Policy string
	// Costs is the cost model; the zero value means DefaultCosts.
	Costs *CostModel
	// Hook, when set, receives the probe stream and enables probe-cost
	// intrusion, turning the run into a monitored execution.
	Hook Hook
	// CollectTimeline enables building a trace.Timeline of the run.
	CollectTimeline bool
	// Seed and JitterAmp perturb compute bursts multiplicatively by up to
	// ±JitterAmp, emulating run-to-run variation of real executions.
	// JitterAmp 0 disables perturbation.
	Seed      uint64
	JitterAmp float64
	// CacheBonus shrinks every compute burst by the given fraction,
	// modelling the per-CPU cache locality a partitioned working set
	// gains on a real multiprocessor. The trace-driven Simulator does
	// not simulate caches (paper sections 3.2 and 6), so a reference
	// execution configured with a bonus makes the prediction pessimistic
	// — the paper's Ocean behaviour.
	CacheBonus float64
	// MaxOpsWithoutProgress bounds consecutive zero-duration operations
	// before the run is aborted as livelocked — the fate of spinning
	// programs under the Recorder (paper section 6). 0 means 1e6.
	MaxOpsWithoutProgress int
	// MaxDuration aborts the run once virtual time exceeds the budget: a
	// watchdog for programs that spin making time-consuming calls
	// forever (the other face of the paper's section-6 livelock).
	// 0 means unlimited.
	MaxDuration vtime.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.CPUs <= 0 {
		out.CPUs = 1
	}
	if out.Costs == nil {
		def := DefaultCosts()
		out.Costs = &def
	}
	if out.MaxOpsWithoutProgress <= 0 {
		out.MaxOpsWithoutProgress = 1_000_000
	}
	return out
}
