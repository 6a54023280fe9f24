package sched

import (
	"sync/atomic"

	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// State is a thread's scheduling state, the same in both engines.
type State uint8

// Thread states. The zero value is NotStarted, so a fresh ThreadNode
// starts there.
const (
	NotStarted State = iota
	Runnable
	Running
	Sleeping
	// WakePending: woken across CPUs, the communication delay in flight
	// (the Simulator only).
	WakePending
	Zombie
)

var stateNames = [...]string{"not-started", "runnable", "running", "sleeping", "wake-pending", "zombie"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "?"
}

// legal is the thread state machine both engines run, written as data in
// the style of gotraceui's legalStateTransitions: legal[from][to] holds
// when a thread may move from one state to the other. Every transition
// goes through ThreadNode.To, and TestThreadTransitions checks that the
// engines make every move the table allows and no other.
var legal = [...][len(stateNames)]bool{
	// thr_create (or the start of the run) wakes it.
	NotStarted: {Runnable: true},
	// Dispatched; thr_suspend'ed while queued.
	Runnable: {Running: true, Sleeping: true},
	// Preempted, out of quantum or yielded; blocked or thr_suspend'ed;
	// exited.
	Running: {Runnable: true, Sleeping: true, Zombie: true},
	// Woken or thr_continue'd; woken from another CPU with a delay.
	Sleeping: {Runnable: true, WakePending: true},
	// The delay elapsed; thr_suspend'ed while the wake was in flight.
	WakePending: {Runnable: true, Sleeping: true},
	Zombie:      {},
}

// Legal reports whether the state machine allows a move from one state to
// the other.
func Legal(from, to State) bool { return legal[from][to] }

// Stage is where a thread is within its current call.
type Stage uint8

// Call stages.
const (
	StageCompute Stage = iota // the burst preceding the call
	StageCall                 // the call's own cost
	StageWaiting              // off its CPU until the call completes
)

// ThreadNode is the scheduler-owned state embedded in each engine's
// thread struct: its place in the state machine, its progress through the
// current call, thr_suspend's flags and its timeline span cursor.
type ThreadNode struct {
	// TI is the thread's dense index: its slot in the engine's thread
	// table and in the object core.
	TI    int32
	State State
	Stage Stage
	// WorkLeft is what remains of the current stage's CPU demand, and
	// CPUTime the CPU time the thread has used.
	WorkLeft vtime.Duration
	CPUTime  vtime.Duration
	// LastCPU is the CPU the thread last ran on, -1 before it first runs.
	LastCPU int

	// Suspended marks a thr_suspend'ed thread. WakeDeferred marks one
	// that thr_continue must wake: it was runnable or running when
	// suspended, or a wake arrived while it was suspended.
	Suspended    bool
	WakeDeferred bool

	// TL is the thread's handle in tb, which is nil when no timeline is
	// built and once the thread has exited; span is its open span.
	TL   int
	tb   *trace.TimelineBuilder
	span trace.Span
}

// observer, when set, sees every transition To makes.
var observer atomic.Pointer[func(from, to State)]

// ObserveTransitions makes f see every thread's every transition, in
// every engine, until the returned stop is called. Tests use it to check
// the engines against the state machine.
func ObserveTransitions(f func(from, to State)) (stop func()) {
	observer.Store(&f)
	return func() { observer.Store(nil) }
}

// StartTimeline enters the thread into tb at now, blocked until its first
// transition.
func (n *ThreadNode) StartTimeline(tb *trace.TimelineBuilder, info trace.ThreadInfo, now vtime.Time) {
	n.tb = tb
	n.TL = tb.StartThread(info, now)
	n.span = trace.Span{Start: now, State: trace.StateBlocked, CPU: -1, LWP: -1}
}

// To is the one transition function: every state change of either
// engine's threads goes through it. It closes the thread's open timeline
// span at now and opens the span the new state implies: running on cpu
// and lwp, runnable on lwp (-1 when parked without one), blocked
// otherwise. Entering Zombie ends the thread's timeline.
func (n *ThreadNode) To(st State, now vtime.Time, cpu, lwp int32) {
	if f := observer.Load(); f != nil {
		(*f)(n.State, st)
	}
	n.State = st
	if n.tb == nil {
		return
	}
	next := trace.Span{Start: now, State: trace.StateBlocked, CPU: -1, LWP: -1}
	switch st {
	case Running:
		next.State, next.CPU, next.LWP = trace.StateRunning, cpu, lwp
	case Runnable:
		next.State, next.LWP = trace.StateRunnable, lwp
	case Zombie:
		n.span.End = now
		n.tb.AddSpan(n.TL, n.span)
		n.tb.EndThread(n.TL, now)
		n.tb = nil
		return
	}
	if next.State == n.span.State && next.CPU == n.span.CPU && next.LWP == n.span.LWP {
		// Sleeping and wake-pending share a span.
		return
	}
	n.span.End = now
	n.tb.AddSpan(n.TL, n.span)
	n.span = next
}

// ---- thread-level calls ---------------------------------------------------

// set moves t to st at the engine's current time.
func (c *Core[T, L, C]) set(t T, st State, cpu, lwp int) {
	t.Node().To(st, *c.now, int32(cpu), int32(lwp))
}

// Block takes the running thread t off cpu until a wake; it completes its
// call when it is dispatched again.
func (c *Core[T, L, C]) Block(cpu C, t T) {
	t.Node().Stage = StageWaiting
	c.set(t, Sleeping, -1, -1)
	c.detach(cpu, t)
}

// Yield takes the running thread t off cpu but keeps it runnable: its LWP
// queues behind its equals, and thr_yield completes when the thread is
// dispatched again.
func (c *Core[T, L, C]) Yield(cpu C, t T) {
	l := t.SchedLWP()
	t.Node().Stage = StageWaiting
	c.set(t, Runnable, -1, l.Node().ID)
	c.Unlink(cpu, l)
	c.PushKernelQ(l)
}

// Suspend applies thr_suspend(target) issued by t, which runs on cpu, and
// reports whether t itself stopped running. A target that is already
// suspended, not yet started or exited is left alone.
func (c *Core[T, L, C]) Suspend(cpu C, t, target T) bool {
	n := target.Node()
	if n.Suspended || n.State == NotStarted || n.State == Zombie {
		return false
	}
	n.Suspended = true
	if n.State == Sleeping {
		// Asleep on an object, it stays asleep: Wake keeps its wake for
		// thr_continue.
		return false
	}
	// Ready, or woken with the wake in flight: thr_continue must wake it.
	n.WakeDeferred = true
	switch n.State {
	case Running:
		if target == t {
			c.Block(cpu, t)
			return true
		}
		// Strip the target off its CPU mid-burst; WorkLeft keeps its
		// progress for thr_continue.
		tcpu := target.SchedLWP().SchedCPU()
		c.account(tcpu.Node())
		c.set(target, Sleeping, -1, -1)
		c.evict(tcpu, target)
	case Runnable:
		c.unqueue(target)
		c.set(target, Sleeping, -1, -1)
	case WakePending:
		// The Simulator drops the wake's delivery, which finds the thread
		// no longer wake-pending.
		c.set(target, Sleeping, -1, -1)
	}
	return false
}

// Continue applies thr_continue(target) issued by t. A target with a
// deferred wake is woken through the engine's grant path, as if t had
// granted it.
func (c *Core[T, L, C]) Continue(t, target T) {
	n := target.Node()
	if !n.Suspended {
		return
	}
	n.Suspended = false
	if n.WakeDeferred {
		n.WakeDeferred = false
		c.engine.Wake(n.TI, t.Node().TI)
	}
}
