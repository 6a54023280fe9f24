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

// ThreadNode is the scheduler's state embedded in each engine's thread
// struct: its priority and binding, its place in the state machine, its
// progress through the current call, thr_suspend's flags, the LWP that
// carries it and its timeline span cursor. The engine registers it with
// the Core (AddThread).
type ThreadNode struct {
	// TI is the thread's dense index: its slot in the engine's thread
	// table, in the Core and in the object core.
	TI int32
	// Prio is the thread's user priority, which orders the user run
	// queue. Bound binds it to an LWP of its own, and BoundCPU, unless it
	// is -1, to one CPU. The engine sets all three.
	Prio     int
	Bound    bool
	BoundCPU int

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

	// lwp is the LWP carrying the thread, nilIdx for none.
	lwp int32

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

// set moves thread n to st at the engine's current time.
func (c *Core) set(n *ThreadNode, st State, cpu, lwp int32) {
	n.To(st, *c.now, cpu, lwp)
}

// Block takes thread ti, running on cpu, off the CPU until a wake; it
// completes its call when it is dispatched again.
func (c *Core) Block(cpu, ti int32) {
	n := c.threads[ti]
	n.Stage = StageWaiting
	c.set(n, Sleeping, -1, -1)
	c.detach(cpu, ti)
}

// BlockUnless blocks thread ti, running on cpu, unless its call was
// granted at once, and reports whether it blocked.
func (c *Core) BlockUnless(granted bool, cpu, ti int32) bool {
	if !granted {
		c.Block(cpu, ti)
	}
	return !granted
}

// Yield takes thread ti, running on cpu, off the CPU but keeps it
// runnable: its LWP queues behind its equals, and thr_yield completes
// when the thread is dispatched again.
func (c *Core) Yield(cpu, ti int32) {
	n := c.threads[ti]
	l := n.lwp
	n.Stage = StageWaiting
	c.set(n, Runnable, -1, l)
	c.unlink(cpu)
	c.pushKernelQ(l)
}

// Suspend applies thr_suspend(target) issued by thread ti, which runs on
// cpu, and reports whether ti itself stopped running. A target that is
// already suspended, not yet started or exited is left alone.
func (c *Core) Suspend(cpu, ti, target int32) bool {
	n := c.threads[target]
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
		if target == ti {
			c.Block(cpu, ti)
			return true
		}
		// Strip the target off its CPU mid-burst; WorkLeft keeps its
		// progress for thr_continue.
		tcpu := c.lwps[n.lwp].cpu
		c.account(&c.cpus[tcpu])
		c.set(n, Sleeping, -1, -1)
		c.detach(tcpu, target)
	case Runnable:
		c.unqueue(n)
		c.set(n, Sleeping, -1, -1)
	case WakePending:
		// The Simulator disarms the delayed wake before it suspends.
		c.set(n, Sleeping, -1, -1)
	}
	return false
}

// Continue applies thr_continue(target) issued by thread ti. A target
// with a deferred wake is woken through the engine's grant path, as if ti
// had granted it.
func (c *Core) Continue(ti, target int32) {
	n := c.threads[target]
	if !n.Suspended {
		return
	}
	n.Suspended = false
	if n.WakeDeferred {
		n.WakeDeferred = false
		c.engine.Wake(target, ti)
	}
}
