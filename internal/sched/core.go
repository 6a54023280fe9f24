package sched

import (
	"fmt"
	"slices"

	"vppb/internal/vtime"
)

// MaxCPUs bounds every machine either engine runs: its CPU count, its LWP
// pool and the pool a thr_setconcurrency may grow. The engines allocate
// one struct per CPU and per LWP in one step, so an unbounded count from
// a request, an uploaded log or a program could exhaust memory at once, a
// fatal runtime error that recover cannot catch.
const MaxCPUs = 4096

// The Core is generic over the engines' own thread/LWP/CPU types: the
// recording kernel schedules live goroutine-backed threads, the Simulator
// schedules trace records, and neither pays an interface allocation per
// entity. The three type parameters reference each other, so the
// constraint interfaces are parameterized the same way.

// LWPNode is the scheduler-owned state embedded in each engine's LWP
// struct.
type LWPNode struct {
	ID          int
	Prio        int
	QuantumLeft vtime.Duration
	// Dedicated marks the LWP of one bound thread; it dies with the
	// thread (Exit).
	Dedicated bool
}

// CPUNode is the scheduler-owned state embedded in each engine's CPU
// struct.
type CPUNode struct {
	ID int
	// Epoch invalidates pending burst events: a burst timer carries the
	// epoch it was armed at, and an EvBurst event whose epoch lags is
	// dropped.
	Epoch uint64

	// lwp and thread are the nodes of the LWP the CPU runs and of its
	// thread, lwp nil while the CPU idles. The Core sets them wherever it
	// links the engine's CPU, so the per-event paths reach the nodes
	// without a call through the engine's types.
	lwp    *LWPNode
	thread *ThreadNode
	// accounted is when the CPU's time was last charged (account);
	// overhead is the dispatch overhead it owes before its thread's work;
	// lastLWP is the ID of the LWP it last placed, -1 before the first.
	accounted vtime.Time
	overhead  vtime.Duration
	lastLWP   int
}

// Overheads are the dispatch costs a CPU pays before it runs a thread's
// work: a context switch when it runs another LWP than the one it last
// ran, or another thread on the same LWP, and a migration when the
// thread last ran on another CPU. The recording kernel takes them from
// its cost model; the Simulator passes zero, as the paper leaves both
// unmodelled.
type Overheads struct {
	ContextSwitch, Migration vtime.Duration
}

// Thread is the scheduler's view of an engine thread.
type Thread[L any] interface {
	comparable
	Node() *ThreadNode
	SchedPrio() int
	SchedBound() bool
	SchedBoundCPU() int
	SchedLWP() L
	SetSchedLWP(L)
}

// LWP is the scheduler's view of an engine LWP.
type LWP[T, C any] interface {
	comparable
	Node() *LWPNode
	SchedThread() T
	SetSchedThread(T)
	SchedCPU() C
	SetSchedCPU(C)
}

// CPU is the scheduler's view of an engine CPU.
type CPU[L any] interface {
	comparable
	Node() *CPUNode
	SchedLWP() L
	SetSchedLWP(L)
}

// Engine receives the scheduling decisions the Core makes. The Core owns
// the queues, the who-runs-where choice, the CPU accounting with its
// dispatch overheads and the burst and slice timers; the engine owns its
// calls' stages, its own events, probes and grants.
type Engine[T Thread[L], L LWP[T, C], C CPU[L]] interface {
	// Complete finishes t's call, which completed while t was off-CPU,
	// now that the Core runs t on cpu again. It may end t (a replay whose
	// records are exhausted exits); the Core arms t's timers only if t
	// still runs on cpu afterwards.
	Complete(cpu C, t T)
	// Wake is the engine's grant path, which thr_continue takes: it
	// wakes the thread with dense index ti as if thread by had granted
	// it (the same method as syncobj.Engine's).
	Wake(ti, by int32)
}

// Core is the shared two-level scheduler state machine: the user run
// queue (threads waiting for an LWP), the kernel queue (LWPs waiting for
// a CPU), the idle-LWP pool, and the policy-driven dispatch, preemption
// and time-slice rules.
type Core[T Thread[L], L LWP[T, C], C CPU[L]] struct {
	policy    Policy
	engine    Engine[T, L, C]
	now       *vtime.Time // the engine's clock
	cpus      []C
	nodes     []*CPUNode // cpus[i].Node()
	noPreempt bool
	costs     Overheads

	// events holds the burst timers and the engine's own events; slices
	// holds the slice timers (see Pop).
	events vtime.EventQueue[Event]
	slices sliceRing

	userRunQ []T
	kernelQ  []L
	idleLWPs []L

	// dispatchDirty and preemptDirty record whether any state change since
	// the last DispatchAll / PreemptPass could possibly let the pass do
	// work. The engines call both passes after every simulated event; on
	// stale or no-op events (the common case in a contended replay) the
	// flags turn the O(CPUs) dispatch and preemption scans into a single
	// branch. A dispatch opportunity requires a kernel-queue insertion or
	// a CPU going idle; a preemption opportunity requires a kernel-queue
	// insertion or a running LWP's priority drop (every policy's
	// ShouldPreempt(q, r) implies Precedes(q, r), so a placement taken
	// best-first from the queue can never itself be preemptable by what
	// remains queued).
	dispatchDirty bool
	preemptDirty  bool

	// pool counts the pool LWPs (the ones not dedicated to a bound
	// thread); pool LWPs never die, so it only grows.
	pool int

	// idleCPUs counts CPUs with no linked LWP. All link changes funnel
	// through Core (dispatch placement, Unlink, NextThread's idle branch),
	// so the count is exact and DispatchAll can skip its CPU scan outright
	// while every CPU is busy — the steady state of a contended replay.
	idleCPUs int

	// peak and contended are what the run so far proved about its
	// machine (PeakRunning, Contended).
	peak      int
	contended bool

	// OnPushKernelQ, when non-nil, runs before every kernel-queue
	// insertion — the engines' debug-invariant hook.
	OnPushKernelQ func(L)
}

// NewCore builds a scheduler over the given CPUs, where cpus[i] must have
// ID i (a CPU-bound thread and a burst or slice event name a CPU by ID).
// now is the engine's clock, which times the threads' state changes and
// the timers. costs are the dispatch overheads. hint preallocates the
// queues (the Simulator knows its thread count up front).
func NewCore[T Thread[L], L LWP[T, C], C CPU[L]](policy Policy, engine Engine[T, L, C], now *vtime.Time, cpus []C, noPreemption bool, costs Overheads, hint int) *Core[T, L, C] {
	c := &Core[T, L, C]{
		policy:        policy,
		engine:        engine,
		now:           now,
		cpus:          cpus,
		noPreempt:     noPreemption,
		costs:         costs,
		slices:        newSliceRing(len(cpus)),
		userRunQ:      make([]T, 0, hint),
		kernelQ:       make([]L, 0, hint),
		idleLWPs:      make([]L, 0, hint),
		dispatchDirty: true,
		preemptDirty:  true,
		idleCPUs:      len(cpus),
	}
	c.nodes = make([]*CPUNode, len(cpus))
	for i, cpu := range cpus {
		c.nodes[i] = cpu.Node()
		c.nodes[i].lastLWP = -1
	}
	// The queue's steady state holds at most one burst event per CPU plus
	// one engine event per thread; reserving that up front keeps heap
	// growth out of the event loop.
	c.events.Reserve(2*hint + 2*len(cpus) + 8)
	return c
}

// Policy returns the active scheduling policy.
func (c *Core[T, L, C]) Policy() Policy { return c.policy }

// Quantum is the policy's time slice at priority p.
func (c *Core[T, L, C]) Quantum(p int) vtime.Duration { return c.policy.Quantum(p) }

// PeakRunning is one more than the highest CPU the run has placed an LWP
// on. A placement takes the lowest idle CPU its LWP may run on, so
// without threads bound to CPUs this is the most CPUs busy at once; a
// thread bound to a CPU counts every CPU up to its own.
func (c *Core[T, L, C]) PeakRunning() int { return c.peak }

// Contended reports whether anything in the run so far waited for a CPU
// or an LWP: an LWP left in the kernel queue or a thread left in the user
// run queue after a dispatch-and-preempt pass, or an LWP evicted by
// preemption or at slice expiry. A run that never contended placed every
// runnable LWP the instant it became runnable, so its priorities and
// quanta never decided who ran.
func (c *Core[T, L, C]) Contended() bool { return c.contended }

// KernelQ exposes the kernel queue for invariant checks. Read-only.
func (c *Core[T, L, C]) KernelQ() []L { return c.kernelQ }

// UserRunQ exposes the user run queue for invariant checks. Read-only.
func (c *Core[T, L, C]) UserRunQ() []T { return c.userRunQ }

// IdleLWPs exposes the idle pool for invariant checks. Read-only.
func (c *Core[T, L, C]) IdleLWPs() []L { return c.idleLWPs }

// AddIdleLWP parks a fresh pool LWP on the idle list.
func (c *Core[T, L, C]) AddIdleLWP(l L) {
	c.pool++
	c.idleLWPs = append(c.idleLWPs, l)
}

// CheckConcurrency rejects a thr_setconcurrency request for more than
// MaxCPUs LWPs.
func CheckConcurrency(n int) error {
	if n > MaxCPUs {
		return fmt.Errorf("thr_setconcurrency %d exceeds the limit of %d LWPs", n, MaxCPUs)
	}
	return nil
}

// SetConcurrency applies thr_setconcurrency(n) to a dynamic LWP pool: it
// checks n with CheckConcurrency and grows the pool to n LWPs, each made
// by newLWP(false). A smaller request leaves the pool as it is.
func (c *Core[T, L, C]) SetConcurrency(n int, newLWP func(dedicated bool) L) error {
	if err := CheckConcurrency(n); err != nil {
		return err
	}
	for ; c.pool < n; c.pool++ {
		c.ReassignOrIdle(newLWP(false))
	}
	return nil
}

// ---- queues ---------------------------------------------------------------

// PushUserRunQ inserts a runnable LWP-less thread in policy order, FIFO
// within a priority.
func (c *Core[T, L, C]) PushUserRunQ(t T) {
	i := len(c.userRunQ)
	for i > 0 && c.policy.Precedes(t.SchedPrio(), c.userRunQ[i-1].SchedPrio()) {
		i--
	}
	var zero T
	c.userRunQ = append(c.userRunQ, zero)
	copy(c.userRunQ[i+1:], c.userRunQ[i:])
	c.userRunQ[i] = t
}

// PopUserRunQ removes and returns the best queued thread, or the zero
// value. The pop copies down rather than re-slicing from the front: a
// front re-slice slides the live window along the backing array, forcing
// a fresh allocation every cap-many pushes in steady state.
func (c *Core[T, L, C]) PopUserRunQ() T {
	if len(c.userRunQ) == 0 {
		var zero T
		return zero
	}
	t := c.userRunQ[0]
	n := copy(c.userRunQ, c.userRunQ[1:])
	var zero T
	c.userRunQ[n] = zero
	c.userRunQ = c.userRunQ[:n]
	return t
}

// removeUserRunQ unqueues a specific thread, if it is queued.
func (c *Core[T, L, C]) removeUserRunQ(t T) {
	if i := slices.Index(c.userRunQ, t); i >= 0 {
		c.userRunQ = slices.Delete(c.userRunQ, i, i+1)
	}
}

// PushKernelQ inserts a runnable LWP in policy order, FIFO within a
// priority.
func (c *Core[T, L, C]) PushKernelQ(l L) {
	if c.OnPushKernelQ != nil {
		c.OnPushKernelQ(l)
	}
	c.dispatchDirty = true
	c.preemptDirty = true
	i := len(c.kernelQ)
	for i > 0 && c.policy.Precedes(l.Node().Prio, c.kernelQ[i-1].Node().Prio) {
		i--
	}
	var zero L
	c.kernelQ = append(c.kernelQ, zero)
	copy(c.kernelQ[i+1:], c.kernelQ[i:])
	c.kernelQ[i] = l
}

// removeKernelQ unqueues a specific LWP; false if it was not queued.
func (c *Core[T, L, C]) removeKernelQ(l L) bool {
	for i, q := range c.kernelQ {
		if q == l {
			c.kernelQ = append(c.kernelQ[:i], c.kernelQ[i+1:]...)
			return true
		}
	}
	return false
}

// eligible reports whether the LWP may run on the CPU (bound-thread CPU
// affinity). A queued LWP always carries a thread.
func (c *Core[T, L, C]) eligible(cpu C, l L) bool {
	b := l.SchedThread().SchedBoundCPU()
	return b < 0 || b == cpu.Node().ID
}

// takeKernelQ removes and returns the best LWP runnable on cpu.
func (c *Core[T, L, C]) takeKernelQ(cpu C) (L, bool) {
	for i, l := range c.kernelQ {
		if c.eligible(cpu, l) {
			c.kernelQ = append(c.kernelQ[:i], c.kernelQ[i+1:]...)
			return l, true
		}
	}
	var zero L
	return zero, false
}

// peekKernelQ reports the priority of the best LWP runnable on cpu.
func (c *Core[T, L, C]) peekKernelQ(cpu C) (int, bool) {
	for _, l := range c.kernelQ {
		if c.eligible(cpu, l) {
			return l.Node().Prio, true
		}
	}
	return 0, false
}

// ---- scheduling -----------------------------------------------------------

// Wake makes a thread runnable: requeue its dedicated LWP, attach an idle
// pool LWP, or park it on the user run queue. boost applies the policy's
// sleep-return priority lift. A suspended thread keeps the wake for
// thr_continue.
func (c *Core[T, L, C]) Wake(t T, boost bool) {
	if n := t.Node(); n.Suspended {
		n.WakeDeferred = true
		return
	}
	if t.SchedBound() {
		l := t.SchedLWP()
		c.refreshWake(l, boost)
		c.set(t, Runnable, -1, l.Node().ID)
		c.PushKernelQ(l)
		return
	}
	if len(c.idleLWPs) > 0 {
		// FIFO, with the same copy-down pop as PopUserRunQ: the oldest
		// idle LWP is reused first (LIFO would change LWP assignment and
		// with it recorded LWP ids), and the backing array never slides.
		l := c.idleLWPs[0]
		n := copy(c.idleLWPs, c.idleLWPs[1:])
		var zeroL L
		c.idleLWPs[n] = zeroL
		c.idleLWPs = c.idleLWPs[:n]
		l.SetSchedThread(t)
		t.SetSchedLWP(l)
		c.refreshWake(l, boost)
		c.set(t, Runnable, -1, l.Node().ID)
		c.PushKernelQ(l)
		return
	}
	c.set(t, Runnable, -1, -1)
	c.PushUserRunQ(t)
}

// refreshWake applies the wake boost and grants a fresh quantum.
func (c *Core[T, L, C]) refreshWake(l L, boost bool) {
	n := l.Node()
	if boost {
		n.Prio = c.policy.OnWake(n.Prio)
	}
	n.QuantumLeft = c.policy.Quantum(n.Prio)
}

// Unlink detaches an LWP from its CPU and drops both of the CPU's timers:
// the burst by its epoch, the slice by taking it out of the ring. Every
// requeue or park of a running LWP funnels through here.
func (c *Core[T, L, C]) Unlink(cpu C, l L) {
	c.dispatchDirty = true // the CPU goes idle
	c.idleCPUs++
	cn := cpu.Node()
	cn.Epoch++
	cn.lwp = nil
	c.slices.remove(int32(cn.ID))
	var zeroL L
	var zeroC C
	cpu.SetSchedLWP(zeroL)
	l.SetSchedCPU(zeroC)
}

// Undispatch evicts the running LWP from a CPU, preserving its thread's
// progress, and requeues it on the kernel queue.
func (c *Core[T, L, C]) Undispatch(cpu C) {
	c.account(cpu.Node())
	l := cpu.SchedLWP()
	var zeroL L
	if l == zeroL {
		return
	}
	c.contended = true
	c.Unlink(cpu, l)
	c.set(l.SchedThread(), Runnable, -1, l.Node().ID)
	c.PushKernelQ(l)
}

// DispatchAll assigns runnable LWPs to idle CPUs until no assignment is
// possible, and starts each placed LWP's thread (run).
func (c *Core[T, L, C]) DispatchAll() {
	if !c.dispatchDirty {
		return
	}
	var zeroL L
	for {
		// DispatchAll runs after every simulated event; an empty kernel
		// queue or a fully busy machine (the two common steady states) must
		// cost nothing. Clearing the flag on exit is sound because the loop
		// runs to quiescence: any insertion or CPU release a placement
		// triggers mid-pass is observed by the final no-progress scan, and
		// every future CPU release re-sets the flag.
		if len(c.kernelQ) == 0 || c.idleCPUs == 0 {
			c.dispatchDirty = false
			return
		}
		progress := false
		for _, cpu := range c.cpus {
			if cpu.SchedLWP() != zeroL {
				continue
			}
			l, ok := c.takeKernelQ(cpu)
			if !ok {
				continue
			}
			cpu.SetSchedLWP(l)
			l.SetSchedCPU(cpu)
			c.idleCPUs--
			c.peak = max(c.peak, cpu.Node().ID+1)
			c.run(cpu, l, l.SchedThread(), true)
			progress = true
		}
		if !progress {
			c.dispatchDirty = false
			return
		}
	}
}

// PreemptPass runs after each event, following DispatchAll: as long as a
// queued LWP may preempt a running one on an eligible CPU (per the
// policy), evict the victim with the lowest priority and re-dispatch.
// Preemption happens only at event boundaries, never in the middle of an
// operation. It ends the dispatch-and-preempt pass, so it also notes
// whether the pass left anything waiting (Contended).
func (c *Core[T, L, C]) PreemptPass() {
	for !c.noPreempt && c.preemptDirty {
		victim, ok := c.preemptVictim()
		if !ok {
			// Quiescent: no queued LWP can preempt any runner, so the pass
			// stays a no-op until the next insertion or priority drop sets
			// the flag again.
			c.preemptDirty = false
			break
		}
		c.Undispatch(victim)
		c.DispatchAll()
	}
	if len(c.kernelQ) > 0 || len(c.userRunQ) > 0 {
		c.contended = true
	}
}

// preemptVictim finds the CPU the best preempting queued LWP evicts: the
// first queued LWP, best first, that may preempt a runner on a CPU it is
// eligible for, and among those runners the lowest-priority one (the
// first in CPU order on a tie). It costs O(CPUs + queued CPU-bound LWPs)
// instead of O(kernelQ x CPUs):
//
//   - a CPU-bound LWP is eligible on one CPU only, so it is tested against
//     that CPU's runner alone;
//   - for the first LWP that may run on any CPU, the lowest-priority
//     runner is the victim if any runner is (ShouldPreempt falls as the
//     running priority rises), and the walk stops there whatever the
//     answer: the queue is priority-descending and ShouldPreempt rises
//     with the queued priority, so if that LWP cannot preempt the lowest
//     runner, no LWP behind it can preempt any runner (see Policy).
func (c *Core[T, L, C]) preemptVictim() (C, bool) {
	var zeroL L
	var zeroC C
	for _, l := range c.kernelQ {
		q := l.Node().Prio
		if b := l.SchedThread().SchedBoundCPU(); b >= 0 {
			if b < len(c.cpus) {
				cpu := c.cpus[b]
				if rl := cpu.SchedLWP(); rl != zeroL && c.policy.ShouldPreempt(q, rl.Node().Prio) {
					return cpu, true
				}
			}
			continue
		}
		low, lowPrio := zeroC, 0
		for _, cpu := range c.cpus {
			if rl := cpu.SchedLWP(); rl != zeroL {
				if p := rl.Node().Prio; low == zeroC || p < lowPrio {
					low, lowPrio = cpu, p
				}
			}
		}
		if low != zeroC && c.policy.ShouldPreempt(q, lowPrio) {
			return low, true
		}
		break
	}
	return zeroC, false
}

// NextThread hands a pool LWP — still linked to cpu — its next queued
// unbound thread and starts it (run), or unlinks and idles it. This is
// the fast run-to-next-thread path that skips the kernel queue.
func (c *Core[T, L, C]) NextThread(cpu C, l L) {
	next := c.PopUserRunQ()
	var zeroT T
	if next == zeroT {
		c.Unlink(cpu, l)
		c.idleLWPs = append(c.idleLWPs, l)
		return
	}
	l.SetSchedThread(next)
	next.SetSchedLWP(l)
	c.run(cpu, l, next, false)
}

// ---- releasing a thread's LWP ---------------------------------------------
//
// These methods only move the LWP a thread leaves behind; the thread's
// own state changes are made by their callers.

// release unpairs a pool LWP and its thread.
func (c *Core[T, L, C]) release(t T, l L) {
	var zeroT T
	var zeroL L
	l.SetSchedThread(zeroT)
	t.SetSchedLWP(zeroL)
}

// detach takes a thread that stopped running (it blocked, or suspended
// itself) off cpu: a bound thread's dedicated LWP sleeps with it, a pool
// LWP moves on to its next thread.
func (c *Core[T, L, C]) detach(cpu C, t T) {
	l := t.SchedLWP()
	if t.SchedBound() {
		c.Unlink(cpu, l)
		return
	}
	cpu.Node().Epoch++
	c.release(t, l)
	c.NextThread(cpu, l)
}

// evict takes a running thread off cpu without requeueing it (another
// thread suspended it). A pool LWP moves on to other work and the thread
// reattaches when it is continued.
func (c *Core[T, L, C]) evict(cpu C, t T) {
	l := t.SchedLWP()
	c.Unlink(cpu, l)
	if !t.SchedBound() {
		c.release(t, l)
		c.NextThread(cpu, l)
	}
}

// unqueue removes a runnable thread from whichever queue holds it,
// freeing a pool LWP it was queued with.
func (c *Core[T, L, C]) unqueue(t T) {
	l := t.SchedLWP()
	var zeroL L
	if l == zeroL {
		c.removeUserRunQ(t)
		return
	}
	c.removeKernelQ(l)
	if !t.SchedBound() {
		c.release(t, l)
		c.ReassignOrIdle(l)
	}
}

// Exit frees the LWP of a thread exiting on cpu: a bound thread's
// dedicated LWP goes with it, a pool LWP moves on to its next thread.
func (c *Core[T, L, C]) Exit(cpu C, t T) {
	l := t.SchedLWP()
	var zeroL L
	t.SetSchedLWP(zeroL)
	cpu.Node().Epoch++
	if l == zeroL {
		return
	}
	if l.Node().Dedicated {
		c.Unlink(cpu, l)
		return
	}
	var zeroT T
	l.SetSchedThread(zeroT)
	c.NextThread(cpu, l)
}

// ReassignOrIdle gives a free, unqueued pool LWP its next queued unbound
// thread (requeuing the LWP on the kernel queue) or parks it on the idle
// list.
func (c *Core[T, L, C]) ReassignOrIdle(l L) {
	next := c.PopUserRunQ()
	var zeroT T
	if next == zeroT {
		c.idleLWPs = append(c.idleLWPs, l)
		return
	}
	l.SetSchedThread(next)
	next.SetSchedLWP(l)
	c.PushKernelQ(l)
}

// sliceExpired applies the policy's quantum-expiry rules to the LWP
// running on cpu. It returns true when the LWP yielded the CPU and false
// when it keeps running (the caller re-arms its slice).
func (c *Core[T, L, C]) sliceExpired(cpu C) bool {
	cn := cpu.Node()
	c.account(cn)
	waiting, has := c.peekKernelQ(cpu)
	n := cn.lwp
	newPrio, yield := c.policy.OnSliceExpiry(n.Prio, waiting, has)
	if newPrio < n.Prio {
		// A running LWP's priority dropped: queued LWPs may now preempt it.
		c.preemptDirty = true
	}
	n.Prio = newPrio
	n.QuantumLeft = c.policy.Quantum(newPrio)
	if yield {
		c.Undispatch(cpu)
		return true
	}
	return false
}
