package sched

import (
	"fmt"
	"slices"

	"vppb/internal/dispatch"
	"vppb/internal/vtime"
)

// MaxCPUs bounds every machine either engine runs: its CPU count, its LWP
// pool and the pool a thr_setconcurrency may grow. The engines allocate
// one struct per CPU and per LWP in one step, so an unbounded count from
// a request, an uploaded log or a program could exhaust memory at once, a
// fatal runtime error that recover cannot catch.
const MaxCPUs = 4096

// nilIdx is the null index of a queue entry or link: no thread, LWP or
// CPU. Every link must be set explicitly, as the zero value 0 is a valid
// index.
const nilIdx int32 = -1

// The Core keeps its own tables of LWPs and CPUs and reaches each thread
// by its dense index (TI) through the nodes the engines register, so its
// queues and links are int32 indices, as in the object core
// (internal/syncobj). An LWP's index is its ID and a CPU's index its ID.

// LWPNode is the Core's state of one LWP.
type LWPNode struct {
	Prio        int
	QuantumLeft vtime.Duration
	// Dedicated marks the LWP of one bound thread; it dies with the
	// thread (Exit).
	Dedicated bool
	// thread is the TI of the thread the LWP carries and cpu the CPU it
	// runs on, nilIdx for none.
	thread, cpu int32
}

// CPUNode is the Core's state of one CPU.
type CPUNode struct {
	// lwp is the LWP the CPU runs, nilIdx while it idles.
	lwp int32
	// accounted is when the CPU's time was last charged (account);
	// overhead is the dispatch overhead it owes before its thread's work;
	// lastLWP is the LWP it last placed, nilIdx before the first.
	accounted vtime.Time
	overhead  vtime.Duration
	lastLWP   int32
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

// Config is the machine a Core schedules.
type Config struct {
	CPUs int
	// LWPs fixes the LWP pool at that many LWPs; 0 or less gives a
	// dynamic pool that starts with one LWP per CPU and grows by
	// SetConcurrency.
	LWPs         int
	NoPreemption bool
	Costs        Overheads
	// Threads preallocates for that many threads (the Simulator knows its
	// thread count up front).
	Threads int
}

// Core is the shared two-level scheduler state machine: the user run
// queue (threads waiting for an LWP), the kernel queue (LWPs waiting for
// a CPU), the idle-LWP pool, the policy-driven dispatch, preemption
// and time-slice rules, and the event loop that runs them (Run).
type Core struct {
	policy    Policy
	engine    Engine
	now       *vtime.Time // the engine's clock
	noPreempt bool
	costs     Overheads

	threads []*ThreadNode // by TI
	lwps    []LWPNode     // by LWP ID
	cpus    []CPUNode     // by CPU ID

	// timers holds every pending event, one slot each, and slots names
	// the event each slot delivers (see pop): each CPU's burst and slice
	// first (timerSlot), then the engine's slots (AddTimer).
	timers vtime.Timers
	slots  []Event

	userRunQ []int32 // TIs
	kernelQ  []int32 // LWP IDs
	idleLWPs []int32 // LWP IDs

	// dispatchDirty and preemptDirty record whether any state change since
	// the last DispatchAll / PreemptPass could possibly let the pass do
	// work. Run calls both passes after every simulated event; on
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
	// thread); pool LWPs never die, so it only grows, and only when the
	// pool is not fixed.
	pool  int
	fixed bool

	// idleCPUs counts CPUs with no linked LWP. All link changes funnel
	// through Core (dispatch placement, unlink), so the count is exact and
	// DispatchAll can skip its CPU scan outright while every CPU is busy —
	// the steady state of a contended replay.
	idleCPUs int

	// peak and contended are what the run so far proved about its
	// machine (PeakRunning, Contended).
	peak      int
	contended bool

	// live counts the threads started and not yet exited (Start, Exit);
	// err is the run's first error (Fail).
	live int
	err  error

	// places is CheckLinks' scratch: where it found each LWP.
	places []int32
}

// NewCore builds a scheduler for the machine m with its initial LWP pool.
// now is the engine's clock, which times the threads' state changes and
// the timers.
func NewCore(policy Policy, engine Engine, now *vtime.Time, m Config) *Core {
	pool := m.LWPs
	if pool <= 0 {
		pool = m.CPUs
	}
	c := &Core{
		policy:        policy,
		engine:        engine,
		now:           now,
		noPreempt:     m.NoPreemption,
		costs:         m.Costs,
		threads:       make([]*ThreadNode, 0, m.Threads),
		lwps:          make([]LWPNode, 0, pool),
		cpus:          make([]CPUNode, m.CPUs),
		userRunQ:      make([]int32, 0, m.Threads),
		kernelQ:       make([]int32, 0, m.Threads),
		idleLWPs:      make([]int32, 0, pool),
		dispatchDirty: true,
		preemptDirty:  true,
		pool:          pool,
		fixed:         m.LWPs > 0,
		idleCPUs:      m.CPUs,
	}
	for i := range c.cpus {
		c.cpus[i] = CPUNode{lwp: nilIdx, lastLWP: nilIdx}
		c.AddTimer(Event{Kind: EvBurst, Who: int32(i)})
		c.AddTimer(Event{Kind: EvSlice, Who: int32(i)})
	}
	for range pool {
		c.idleLWPs = append(c.idleLWPs, c.newLWP(false))
	}
	return c
}

// PeakRunning is one more than the highest CPU the run has placed an LWP
// on. A placement takes the lowest idle CPU its LWP may run on, so
// without threads bound to CPUs this is the most CPUs busy at once; a
// thread bound to a CPU counts every CPU up to its own.
func (c *Core) PeakRunning() int { return c.peak }

// Contended reports whether anything in the run so far waited for a CPU
// or an LWP, or could have: an LWP left in the kernel queue or a thread
// left in the user run queue after a dispatch-and-preempt pass, or an LWP
// bound to a CPU that took it ahead of another queued LWP that may run
// there. An eviction needs no flag of its own: in an engine run, one by a
// preemptor that may run anywhere leaves an LWP queued at the end of its
// pass, a CPU-bound preemptor's placement is the bound case, and a
// slice-expiry yield needs a waiter queued since the last pass. A run that never
// contended placed every runnable LWP the instant it became runnable, in
// an order no priority decided, so its priorities and quanta never decided
// who ran.
func (c *Core) Contended() bool { return c.contended }

// LWPs is the number of LWPs the run has created, dead dedicated ones
// included: the LWP IDs are 0 to LWPs()-1.
func (c *Core) LWPs() int { return len(c.lwps) }

// AddThread registers the node of the thread with dense index n.TI, which
// must be the number of threads registered before it. The node must stay
// where it is for the rest of the run. The thread starts without an LWP
// and without a last CPU.
func (c *Core) AddThread(n *ThreadNode) {
	n.LastCPU = -1
	n.lwp = nilIdx
	c.threads = append(c.threads, n)
}

// newLWP creates an LWP at the default priority with a full quantum and
// returns its ID, the next in creation order.
func (c *Core) newLWP(dedicated bool) int32 {
	l := int32(len(c.lwps))
	c.lwps = append(c.lwps, LWPNode{
		Prio:        dispatch.DefaultPriority,
		QuantumLeft: c.policy.Quantum(dispatch.DefaultPriority),
		Dedicated:   dedicated,
		thread:      nilIdx,
		cpu:         nilIdx,
	})
	return l
}

// SetConcurrency applies thr_setconcurrency(n): it rejects a request for
// more than MaxCPUs LWPs and grows a dynamic pool to n LWPs. A smaller
// request, or any request on a fixed pool, leaves the pool as it is.
func (c *Core) SetConcurrency(n int) error {
	if n > MaxCPUs {
		return fmt.Errorf("thr_setconcurrency %d exceeds the limit of %d LWPs", n, MaxCPUs)
	}
	for ; !c.fixed && c.pool < n; c.pool++ {
		c.reassignOrIdle(c.newLWP(false))
	}
	return nil
}

// ---- queues ---------------------------------------------------------------

// pushUserRunQ inserts a runnable LWP-less thread in policy order, FIFO
// within a priority.
func (c *Core) pushUserRunQ(ti int32) {
	prio := c.threads[ti].Prio
	i := len(c.userRunQ)
	for i > 0 && c.policy.Precedes(prio, c.threads[c.userRunQ[i-1]].Prio) {
		i--
	}
	c.userRunQ = slices.Insert(c.userRunQ, i, ti)
}

// popUserRunQ removes and returns the best queued thread, or nilIdx. The
// pop copies down rather than re-slicing from the front: a front
// re-slice slides the live window along the backing array, forcing a
// fresh allocation every cap-many pushes in steady state.
func (c *Core) popUserRunQ() int32 {
	if len(c.userRunQ) == 0 {
		return nilIdx
	}
	ti := c.userRunQ[0]
	c.userRunQ = slices.Delete(c.userRunQ, 0, 1)
	return ti
}

// removeUserRunQ unqueues a specific thread, if it is queued.
func (c *Core) removeUserRunQ(ti int32) {
	if i := slices.Index(c.userRunQ, ti); i >= 0 {
		c.userRunQ = slices.Delete(c.userRunQ, i, i+1)
	}
}

// pushKernelQ inserts a runnable LWP in policy order, FIFO within a
// priority.
func (c *Core) pushKernelQ(l int32) {
	c.dispatchDirty = true
	c.preemptDirty = true
	prio := c.lwps[l].Prio
	i := len(c.kernelQ)
	for i > 0 && c.policy.Precedes(prio, c.lwps[c.kernelQ[i-1]].Prio) {
		i--
	}
	c.kernelQ = slices.Insert(c.kernelQ, i, l)
}

// removeKernelQ unqueues a specific LWP, if it is queued.
func (c *Core) removeKernelQ(l int32) {
	if i := slices.Index(c.kernelQ, l); i >= 0 {
		c.kernelQ = slices.Delete(c.kernelQ, i, i+1)
	}
}

// eligible reports whether LWP l may run on the CPU (bound-thread CPU
// affinity). A queued LWP always carries a thread.
func (c *Core) eligible(cpu, l int32) bool {
	b := c.threads[c.lwps[l].thread].BoundCPU
	return b < 0 || b == int(cpu)
}

// takeKernelQ removes and returns the best LWP runnable on cpu, or nilIdx.
func (c *Core) takeKernelQ(cpu int32) int32 {
	for i, l := range c.kernelQ {
		if c.eligible(cpu, l) {
			c.kernelQ = slices.Delete(c.kernelQ, i, i+1)
			return l
		}
	}
	return nilIdx
}

// peekKernelQ reports the priority of the best LWP runnable on cpu.
func (c *Core) peekKernelQ(cpu int32) (int, bool) {
	for _, l := range c.kernelQ {
		if c.eligible(cpu, l) {
			return c.lwps[l].Prio, true
		}
	}
	return 0, false
}

// ---- scheduling -----------------------------------------------------------

// Wake makes thread ti runnable: requeue its dedicated LWP, attach an
// idle pool LWP, or park it on the user run queue. boost applies the
// policy's sleep-return priority lift. A suspended thread keeps the wake
// for thr_continue.
func (c *Core) Wake(ti int32, boost bool) {
	n := c.threads[ti]
	if n.Suspended {
		n.WakeDeferred = true
		return
	}
	if !n.Bound {
		if len(c.idleLWPs) == 0 {
			c.set(n, Runnable, -1, -1)
			c.pushUserRunQ(ti)
			return
		}
		// FIFO, with the same copy-down pop as popUserRunQ: the oldest
		// idle LWP is reused first (LIFO would change LWP assignment and
		// with it recorded LWP ids), and the backing array never slides.
		l := c.idleLWPs[0]
		c.idleLWPs = slices.Delete(c.idleLWPs, 0, 1)
		c.pair(ti, l)
	}
	l := n.lwp
	ln := &c.lwps[l]
	if boost {
		ln.Prio = c.policy.OnWake(ln.Prio)
	}
	ln.QuantumLeft = c.policy.Quantum(ln.Prio)
	c.set(n, Runnable, -1, l)
	c.pushKernelQ(l)
}

// pair makes LWP l carry thread ti.
func (c *Core) pair(ti, l int32) {
	c.lwps[l].thread = ti
	c.threads[ti].lwp = l
}

// release unpairs thread n and its pool LWP.
func (c *Core) release(n *ThreadNode) {
	c.lwps[n.lwp].thread = nilIdx
	n.lwp = nilIdx
}

// unlink detaches the LWP running on cpu and disarms both of the CPU's
// timers. Every requeue or park of a running LWP funnels through here.
func (c *Core) unlink(cpu int32) {
	c.dispatchDirty = true // the CPU goes idle
	c.idleCPUs++
	cn := &c.cpus[cpu]
	c.lwps[cn.lwp].cpu = nilIdx
	cn.lwp = nilIdx
	c.timers.Disarm(timerSlot(cpu, EvBurst))
	c.timers.Disarm(timerSlot(cpu, EvSlice))
}

// undispatch evicts the running LWP from a CPU, preserving its thread's
// progress, and requeues it on the kernel queue.
func (c *Core) undispatch(cpu int32) {
	cn := &c.cpus[cpu]
	c.account(cn)
	l := cn.lwp
	if l == nilIdx {
		return
	}
	c.unlink(cpu)
	c.set(c.threads[c.lwps[l].thread], Runnable, -1, l)
	c.pushKernelQ(l)
}

// DispatchAll assigns runnable LWPs to idle CPUs until no assignment is
// possible, and starts each placed LWP's thread (run).
func (c *Core) DispatchAll() {
	if !c.dispatchDirty {
		return
	}
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
		for i := range c.cpus {
			if c.cpus[i].lwp != nilIdx {
				continue
			}
			cpu := int32(i)
			l := c.takeKernelQ(cpu)
			if l == nilIdx {
				continue
			}
			if !c.contended && c.threads[c.lwps[l].thread].BoundCPU >= 0 {
				// A CPU-bound LWP placed ahead of another that may run
				// here won the CPU by queue order, which LWP priorities
				// decide: under another policy, or with the LWPs of a
				// pool of another size, the other takes the CPU and the
				// bound one waits.
				if _, rival := c.peekKernelQ(cpu); rival {
					c.contended = true
				}
			}
			c.cpus[i].lwp = l
			c.lwps[l].cpu = cpu
			c.idleCPUs--
			c.peak = max(c.peak, i+1)
			c.run(cpu, true)
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
func (c *Core) PreemptPass() {
	for !c.noPreempt && c.preemptDirty {
		victim := c.preemptVictim()
		if victim == nilIdx {
			// Quiescent: no queued LWP can preempt any runner, so the pass
			// stays a no-op until the next insertion or priority drop sets
			// the flag again.
			c.preemptDirty = false
			break
		}
		c.undispatch(victim)
		c.DispatchAll()
	}
	if len(c.kernelQ) > 0 || len(c.userRunQ) > 0 {
		c.contended = true
	}
}

// preemptVictim finds the CPU the best preempting queued LWP evicts, or
// nilIdx: the first queued LWP, best first, that may preempt a runner on
// a CPU it is eligible for, and among those runners the lowest-priority
// one (the first in CPU order on a tie). It costs O(CPUs + queued
// CPU-bound LWPs) instead of O(kernelQ x CPUs):
//
//   - a CPU-bound LWP is eligible on one CPU only, so it is tested against
//     that CPU's runner alone;
//   - for the first LWP that may run on any CPU, the lowest-priority
//     runner is the victim if any runner is (ShouldPreempt falls as the
//     running priority rises), and the walk stops there whatever the
//     answer: the queue is priority-descending and ShouldPreempt rises
//     with the queued priority, so if that LWP cannot preempt the lowest
//     runner, no LWP behind it can preempt any runner (see Policy).
func (c *Core) preemptVictim() int32 {
	for _, l := range c.kernelQ {
		q := c.lwps[l].Prio
		if b := c.threads[c.lwps[l].thread].BoundCPU; b >= 0 {
			if b < len(c.cpus) {
				if rl := c.cpus[b].lwp; rl != nilIdx && c.policy.ShouldPreempt(q, c.lwps[rl].Prio) {
					return int32(b)
				}
			}
			continue
		}
		low, lowPrio := nilIdx, 0
		for i := range c.cpus {
			if rl := c.cpus[i].lwp; rl != nilIdx {
				if p := c.lwps[rl].Prio; low == nilIdx || p < lowPrio {
					low, lowPrio = int32(i), p
				}
			}
		}
		if low != nilIdx && c.policy.ShouldPreempt(q, lowPrio) {
			return low
		}
		break
	}
	return nilIdx
}

// nextThread hands the pool LWP running on cpu, which carries no thread,
// its next queued unbound thread and starts it (run), or unlinks and
// idles it. This is the fast run-to-next-thread path that skips the
// kernel queue.
func (c *Core) nextThread(cpu int32) {
	l := c.cpus[cpu].lwp
	next := c.popUserRunQ()
	if next == nilIdx {
		c.unlink(cpu)
		c.idleLWPs = append(c.idleLWPs, l)
		return
	}
	c.pair(next, l)
	c.run(cpu, false)
}

// detach takes thread ti, which stopped running on cpu (it blocked, or a
// thr_suspend stopped it), off the CPU: a bound thread's dedicated LWP
// sleeps with it, a pool LWP moves on to its next thread and the thread
// reattaches to an LWP when it is woken.
func (c *Core) detach(cpu, ti int32) {
	n := c.threads[ti]
	if n.Bound {
		c.unlink(cpu)
		return
	}
	c.release(n)
	c.nextThread(cpu)
}

// unqueue removes a runnable thread from whichever queue holds it,
// freeing a pool LWP it was queued with.
func (c *Core) unqueue(n *ThreadNode) {
	l := n.lwp
	if l == nilIdx {
		c.removeUserRunQ(n.TI)
		return
	}
	c.removeKernelQ(l)
	if !n.Bound {
		c.release(n)
		c.reassignOrIdle(l)
	}
}

// Exit counts thread ti, exiting on cpu, out of the live threads and
// frees its LWP: a bound thread's dedicated LWP goes with it, a pool LWP
// moves on to its next thread.
func (c *Core) Exit(cpu, ti int32) {
	c.live--
	n := c.threads[ti]
	l := n.lwp
	if l == nilIdx {
		return
	}
	n.lwp = nilIdx
	if c.lwps[l].Dedicated {
		c.unlink(cpu)
		return
	}
	c.lwps[l].thread = nilIdx
	c.nextThread(cpu)
}

// reassignOrIdle gives a free, unqueued pool LWP its next queued unbound
// thread (requeuing the LWP on the kernel queue) or parks it on the idle
// list.
func (c *Core) reassignOrIdle(l int32) {
	next := c.popUserRunQ()
	if next == nilIdx {
		c.idleLWPs = append(c.idleLWPs, l)
		return
	}
	c.pair(next, l)
	c.pushKernelQ(l)
}

// sliceExpired applies the policy's quantum-expiry rules to the LWP
// running on cpu. It returns true when the LWP yielded the CPU and false
// when it keeps running (the caller re-arms its slice).
func (c *Core) sliceExpired(cpu int32) bool {
	cn := &c.cpus[cpu]
	c.account(cn)
	waiting, has := c.peekKernelQ(cpu)
	ln := &c.lwps[cn.lwp]
	newPrio, yield := c.policy.OnSliceExpiry(ln.Prio, waiting, has)
	if newPrio < ln.Prio {
		// A running LWP's priority dropped: queued LWPs may now preempt it.
		c.preemptDirty = true
	}
	ln.Prio = newPrio
	ln.QuantumLeft = c.policy.Quantum(newPrio)
	if yield {
		c.undispatch(cpu)
		return true
	}
	return false
}

// ---- link check -----------------------------------------------------------

// CheckLinks verifies that the CPUs, LWPs, threads and queues link to one
// another consistently, and returns the first violation it finds. Every
// running or queued LWP sits in exactly one place (on a CPU, in the
// kernel queue or in the idle pool), a CPU and its LWP point at each
// other, a running or queued LWP carries a thread that points back at it,
// an idle or queued LWP is on no CPU, a thread in the user run queue is
// runnable and carries no LWP, and idleCPUs counts the idle CPUs. An idle
// CPU lists no timer, a busy one's burst is armed, and every armed timer
// slot and its heap entry point at each other (vtime.Timers.Check). With
// DebugChecks on, Run calls it after every event. It reuses one scratch
// slice of place codes, so it allocates only to grow that slice or to
// report a violation.
func (c *Core) CheckLinks() error {
	if cap(c.places) < len(c.lwps) {
		c.places = make([]int32, len(c.lwps))
	}
	c.places = c.places[:len(c.lwps)]
	for l := range c.places {
		c.places[l] = placeNone
	}
	idle := 0
	for i, cn := range c.cpus {
		l := cn.lwp
		_, _, burst := c.timers.Key(timerSlot(int32(i), EvBurst))
		_, _, slice := c.timers.Key(timerSlot(int32(i), EvSlice))
		if l == nilIdx && (burst || slice) {
			return fmt.Errorf("idle cpu %d has an armed timer", i)
		}
		if l == nilIdx {
			idle++
			continue
		}
		if !burst {
			return fmt.Errorf("busy cpu %d has no burst timer", i)
		}
		if err := c.place(l, int32(i)); err != nil {
			return err
		}
		if c.lwps[l].cpu != int32(i) {
			return fmt.Errorf("cpu %d runs LWP %d but LWP points elsewhere", i, l)
		}
		if c.lwps[l].thread == nilIdx {
			return fmt.Errorf("cpu %d runs threadless LWP %d", i, l)
		}
	}
	if idle != c.idleCPUs {
		return fmt.Errorf("%d cpus idle, counted %d", idle, c.idleCPUs)
	}
	if err := c.timers.Check(); err != nil {
		return err
	}
	for _, l := range c.kernelQ {
		if err := c.place(l, placeKernelQ); err != nil {
			return err
		}
		if c.lwps[l].thread == nilIdx {
			return fmt.Errorf("threadless LWP %d in kernelQ", l)
		}
		if cpu := c.lwps[l].cpu; cpu != nilIdx {
			return fmt.Errorf("queued LWP %d claims cpu %d", l, cpu)
		}
	}
	for _, l := range c.idleLWPs {
		if err := c.place(l, placeIdle); err != nil {
			return err
		}
		if ti := c.lwps[l].thread; ti != nilIdx {
			return fmt.Errorf("idle LWP %d has thread %d", l, ti)
		}
		if cpu := c.lwps[l].cpu; cpu != nilIdx {
			return fmt.Errorf("idle LWP %d claims cpu %d", l, cpu)
		}
	}
	for l, ln := range c.lwps {
		if at := c.places[l]; at != placeNone && ln.thread != nilIdx && c.threads[ln.thread].lwp != int32(l) {
			return fmt.Errorf("LWP %d %s carries thread %d, which points elsewhere", l, placeName(at), ln.thread)
		}
	}
	for _, n := range c.threads {
		if n.State == Zombie {
			continue
		}
		if l := n.lwp; l != nilIdx && c.lwps[l].thread != n.TI {
			return fmt.Errorf("thread %d points to LWP %d which carries another thread", n.TI, l)
		}
		if n.State == Running && (n.lwp == nilIdx || c.lwps[n.lwp].cpu == nilIdx) {
			return fmt.Errorf("running thread %d has no LWP/CPU", n.TI)
		}
	}
	for _, ti := range c.userRunQ {
		if l := c.threads[ti].lwp; l != nilIdx {
			return fmt.Errorf("thread %d in userRunQ but attached to LWP %d", ti, l)
		}
		if st := c.threads[ti].State; st != Runnable {
			return fmt.Errorf("thread %d in userRunQ is %v", ti, st)
		}
	}
	return nil
}

// Place codes of CheckLinks: where an LWP was found. A code >= 0 is the
// CPU the LWP runs on.
const (
	placeNone int32 = -1 - iota
	placeKernelQ
	placeIdle
)

// place records that LWP l was found at place code at, or reports that
// it was already found elsewhere.
func (c *Core) place(l, at int32) error {
	if was := c.places[l]; was != placeNone {
		return fmt.Errorf("LWP %d both %s and %s", l, placeName(was), placeName(at))
	}
	c.places[l] = at
	return nil
}

func placeName(at int32) string {
	switch at {
	case placeKernelQ:
		return "in kernelQ"
	case placeIdle:
		return "idle"
	}
	return fmt.Sprintf("on cpu %d", at)
}
