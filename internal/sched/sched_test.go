package sched

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"vppb/internal/dispatch"
	"vppb/internal/vtime"
)

// ---- fake engine -----------------------------------------------------------

// fakeEngine records the callback sequence the Core drives. Its loop
// hooks do nothing: the tests that run the loop use fakeSource.
type fakeEngine struct {
	completed []int32 // TIs, in Complete order
	woken     []int32
}

func (e *fakeEngine) Complete(_, ti int32)            { e.completed = append(e.completed, ti) }
func (e *fakeEngine) Wake(ti, _ int32)                { e.woken = append(e.woken, ti) }
func (e *fakeEngine) Step(Event, bool)                {}
func (e *fakeEngine) Handle(Event)                    {}
func (e *fakeEngine) Reach(_, _ int32) vtime.Duration { return 0 }
func (e *fakeEngine) Apply(_, _ int32) bool           { return false }
func (e *fakeEngine) Deadlock() error                 { return nil }

// fakeSource extends fakeEngine into the call source Run drives. Each
// thread makes calls[ti] calls, every burst and every call costing one
// tick; a call completes on its CPU unless apply says otherwise, and the
// thread exits when Complete finishes its last call. log records the
// drive in order, with the clock.
type fakeSource struct {
	*fakeEngine
	c     *Core
	now   vtime.Time
	calls []int
	// apply, when set, applies a call in place of completing it on the
	// CPU; step and handle, when set, run at Step and Handle.
	apply     func(cpu, ti int32) bool
	step      func(ev Event)
	handle    func(ev Event)
	log       []string
	stepped   []int32 // Who of each event stepped
	handled   []int32 // Who of each engine event handled
	deadlocks int
}

var errFakeDeadlock = errors.New("fake deadlock")

// newFakeSource builds a Core with a dynamic pool on nCPUs CPUs and a
// source whose thread TI i makes calls[i] calls. Every thread is started
// and woken, in TI order, with one tick of work before its first call.
func newFakeSource(t *testing.T, nCPUs int, calls ...int) *fakeSource {
	t.Helper()
	pol, err := New("fifo")
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeSource{fakeEngine: &fakeEngine{}, calls: calls}
	s.c = NewCore(pol, s, &s.now, Config{CPUs: nCPUs})
	for range calls {
		ti := addThread(s.c, 29)
		s.c.threads[ti].WorkLeft = 1
		s.c.Start(ti)
		s.c.Wake(ti, false)
	}
	return s
}

func (s *fakeSource) note(what string, ti int32) {
	s.log = append(s.log, fmt.Sprintf("%s %d @%d", what, ti, s.now))
}

func (s *fakeSource) Step(ev Event, _ bool) {
	s.stepped = append(s.stepped, ev.Who)
	if s.step != nil {
		s.step(ev)
	}
}

func (s *fakeSource) Handle(ev Event) {
	s.handled = append(s.handled, ev.Who)
	if s.handle != nil {
		s.handle(ev)
	}
}

func (s *fakeSource) Reach(_, ti int32) vtime.Duration {
	s.note("reach", ti)
	return 1
}

func (s *fakeSource) Apply(cpu, ti int32) bool {
	s.note("apply", ti)
	return s.apply != nil && s.apply(cpu, ti)
}

func (s *fakeSource) Complete(cpu, ti int32) {
	s.fakeEngine.Complete(cpu, ti)
	s.note("complete", ti)
	n := s.c.threads[ti]
	n.Stage = StageCompute
	if s.calls[ti]--; s.calls[ti] > 0 {
		n.WorkLeft = 1
		return
	}
	n.To(Zombie, s.now, -1, -1)
	s.c.Exit(cpu, ti)
}

func (s *fakeSource) Deadlock() error {
	s.deadlocks++
	return errFakeDeadlock
}

func newFakeCore(t *testing.T, policy string, nCPUs int, noPreempt bool) (*Core, *fakeEngine) {
	t.Helper()
	return newFakeCoreCosts(t, policy, nCPUs, noPreempt, Overheads{})
}

// newFakeCoreCosts is newFakeCore with dispatch overheads.
func newFakeCoreCosts(t *testing.T, policy string, nCPUs int, noPreempt bool, costs Overheads) (*Core, *fakeEngine) {
	t.Helper()
	pol, err := New(policy)
	if err != nil {
		t.Fatal(err)
	}
	return newTestCore(pol, nCPUs, noPreempt, costs)
}

// newTestCore builds a Core with no LWPs: each test creates the ones it
// needs.
func newTestCore(pol Policy, nCPUs int, noPreempt bool, costs Overheads) (*Core, *fakeEngine) {
	eng := &fakeEngine{}
	c := NewCore(pol, eng, new(vtime.Time), Config{CPUs: nCPUs, NoPreemption: noPreempt, Costs: costs})
	c.lwps, c.idleLWPs, c.pool = c.lwps[:0], c.idleLWPs[:0], 0
	return c, eng
}

// addThread registers a fresh unbound thread of priority prio and returns
// its TI.
func addThread(c *Core, prio int) int32 {
	n := &ThreadNode{TI: int32(len(c.threads)), Prio: prio, BoundCPU: -1}
	c.AddThread(n)
	return n.TI
}

// newLWP creates an LWP of priority prio, with no quantum left, that
// carries a fresh thread of the same priority, and returns its ID.
func newLWP(c *Core, prio int) int32 {
	l := c.newLWP(false)
	c.lwps[l].Prio, c.lwps[l].QuantumLeft = prio, 0
	c.pair(addThread(c, prio), l)
	return l
}

// threadOf is the node of the thread LWP l carries.
func threadOf(c *Core, l int32) *ThreadNode { return c.threads[c.lwps[l].thread] }

// link runs l on the idle cpu without starting its thread (no overheads,
// no timers), the way a test sets up a running machine.
func link(c *Core, cpu int, l int32) {
	c.cpus[cpu].lwp, c.lwps[l].cpu = l, int32(cpu)
	c.idleCPUs--
}

// ---- registry --------------------------------------------------------------

func TestRegistry(t *testing.T) {
	want := []string{"fifo", "rr", "ts"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (sorted)", got, want)
		}
	}
	for _, name := range want {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	// The empty name resolves to the default.
	p, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != Default {
		t.Errorf(`New("").Name() = %q, want %q`, p.Name(), Default)
	}
	// An unknown name errors and the message lists every valid choice.
	if _, err := New("lottery"); err == nil {
		t.Fatal("unknown policy accepted")
	} else if msg := err.Error(); !strings.Contains(msg, "lottery") || !strings.Contains(msg, "fifo, rr, ts") {
		t.Errorf("error does not name the input and the valid policies: %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("ts", func() Policy { return fifo{} })
}

// ---- policies --------------------------------------------------------------

func TestSolarisTSPolicy(t *testing.T) {
	p, _ := New("ts")
	table := dispatch.NewTable()
	for _, prio := range []int{0, 10, dispatch.DefaultPriority, 59} {
		if got, want := p.Quantum(prio), vtime.Duration(table.Quantum(prio)); got != want {
			t.Errorf("Quantum(%d) = %v, want table's %v", prio, got, want)
		}
		if got, want := p.OnWake(prio), table.AfterSleepReturn(prio); got != want {
			t.Errorf("OnWake(%d) = %d, want slpret %d", prio, got, want)
		}
	}
	// tqexp demotion, and yield only against a matching-or-better waiter.
	np, yield := p.OnSliceExpiry(dispatch.DefaultPriority, 0, false)
	if np != table.AfterQuantumExpiry(dispatch.DefaultPriority) || yield {
		t.Errorf("OnSliceExpiry(29, none) = (%d, %v), want (%d, false)",
			np, yield, table.AfterQuantumExpiry(dispatch.DefaultPriority))
	}
	if _, yield := p.OnSliceExpiry(29, 19, true); !yield {
		t.Error("waiter at the demoted priority should trigger a yield")
	}
	if _, yield := p.OnSliceExpiry(29, 18, true); yield {
		t.Error("waiter below the demoted priority should not trigger a yield")
	}
	if !p.ShouldPreempt(30, 29) || p.ShouldPreempt(29, 29) {
		t.Error("ts preempts strictly lower-priority runners only")
	}
	if !p.Precedes(30, 29) || p.Precedes(29, 29) {
		t.Error("ts orders by priority, FIFO within a priority")
	}
}

func TestFIFOPolicy(t *testing.T) {
	p, _ := New("fifo")
	if q := p.Quantum(29); q != 0 {
		t.Errorf("fifo Quantum = %v, want 0 (run-to-block)", q)
	}
	if p.ShouldPreempt(59, 0) {
		t.Error("fifo must never preempt")
	}
	if np, yield := p.OnSliceExpiry(29, 59, true); np != 29 || yield {
		t.Errorf("fifo OnSliceExpiry = (%d, %v), want (29, false)", np, yield)
	}
	if p.OnWake(29) != 29 {
		t.Error("fifo has no wake boost")
	}
}

func TestRRPolicy(t *testing.T) {
	p, _ := New("rr")
	for _, prio := range []int{0, 29, 59} {
		if q := p.Quantum(prio); q != RRQuantum {
			t.Errorf("rr Quantum(%d) = %v, want %v", prio, q, RRQuantum)
		}
	}
	if np, yield := p.OnSliceExpiry(29, 0, true); np != 29 || !yield {
		t.Errorf("rr with a waiter = (%d, %v), want (29, true): cycle to the back", np, yield)
	}
	if _, yield := p.OnSliceExpiry(29, 0, false); yield {
		t.Error("rr with an empty queue must keep running")
	}
	if p.ShouldPreempt(59, 0) {
		t.Error("rr must never preempt")
	}
	if p.OnWake(29) != 29 {
		t.Error("rr has no wake boost")
	}
}

// ---- core queues -----------------------------------------------------------

// TestKernelQueueOrder pins the two ordering rules every policy shares:
// higher priority first, FIFO among equals.
func TestKernelQueueOrder(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 1, false)
	a, b, hi, lo := newLWP(c, 20), newLWP(c, 20), newLWP(c, 40), newLWP(c, 10)
	for _, l := range []int32{a, b, hi, lo} {
		c.pushKernelQ(l)
	}
	if want := []int32{hi, a, b, lo}; !slices.Equal(c.kernelQ, want) { // a before b: FIFO at 20
		t.Fatalf("kernel queue order = %v, want %v", c.kernelQ, want)
	}
	c.removeKernelQ(b)
	c.removeKernelQ(b)
	if want := []int32{hi, a, lo}; !slices.Equal(c.kernelQ, want) {
		t.Fatalf("after removing LWP %d twice: %v, want %v", b, c.kernelQ, want)
	}
}

func TestUserRunQueueOrder(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 1, false)
	t1, t2, t3 := addThread(c, 20), addThread(c, 20), addThread(c, 50)
	for _, ti := range []int32{t1, t2, t3} {
		c.pushUserRunQ(ti)
	}
	if got := c.popUserRunQ(); got != t3 {
		t.Fatalf("popUserRunQ = %d, want the high-priority %d", got, t3)
	}
	if got := c.popUserRunQ(); got != t1 {
		t.Fatalf("popUserRunQ = %d, want %d (FIFO within priority)", got, t1)
	}
	if c.popUserRunQ() != t2 || c.popUserRunQ() != nilIdx {
		t.Fatal("queue should drain to nilIdx")
	}
}

// TestWakePaths covers the three Wake outcomes: a bound thread requeues
// its dedicated LWP, an unbound thread grabs the OLDEST idle pool LWP
// (the pool is a queue, not a stack), and with no idle LWP the thread
// parks on the user run queue.
func TestWakePaths(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 1, false)

	bound := addThread(c, 29)
	c.threads[bound].Bound = true
	c.Start(bound)
	dedicated := c.threads[bound].lwp
	c.Wake(bound, false)
	if !slices.Equal(c.kernelQ, []int32{dedicated}) {
		t.Fatal("bound wake must requeue the dedicated LWP")
	}
	c.removeKernelQ(dedicated)

	idleA, idleB := c.newLWP(false), c.newLWP(false)
	c.idleLWPs = append(c.idleLWPs, idleA, idleB)
	u := addThread(c, 29)
	c.Wake(u, false)
	if c.threads[u].lwp != idleA {
		t.Fatal("unbound wake must pop the front of the idle pool")
	}
	if !slices.Equal(c.idleLWPs, []int32{idleB}) {
		t.Fatal("idle pool should retain the younger LWP")
	}

	c.Wake(addThread(c, 29), false) // takes idleB
	parked := addThread(c, 29)
	c.Wake(parked, false)
	if !slices.Equal(c.userRunQ, []int32{parked}) {
		t.Fatalf("with the pool empty the thread must park on the user run queue (runq=%v)", c.userRunQ)
	}
	if st := c.threads[parked].State; st != Runnable {
		t.Fatalf("parked thread is %v, want runnable", st)
	}
	if err := c.CheckLinks(); err != nil {
		t.Fatal(err)
	}
}

// TestWakeBoost: the policy's sleep-return lift applies only when boost is
// set, and a woken LWP always gets a fresh quantum.
func TestWakeBoost(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 1, false)
	table := dispatch.NewTable()

	l := newLWP(c, 20)
	threadOf(c, l).Bound = true
	c.lwps[l].QuantumLeft = 1 // nearly exhausted
	c.Wake(c.lwps[l].thread, true)
	ln := &c.lwps[l]
	if ln.Prio != table.AfterSleepReturn(20) {
		t.Errorf("boosted wake Prio = %d, want slpret %d", ln.Prio, table.AfterSleepReturn(20))
	}
	if ln.QuantumLeft != c.policy.Quantum(ln.Prio) {
		t.Errorf("woken LWP QuantumLeft = %v, want a fresh %v", ln.QuantumLeft, c.policy.Quantum(ln.Prio))
	}

	l2 := newLWP(c, 20)
	threadOf(c, l2).Bound = true
	c.Wake(c.lwps[l2].thread, false)
	if p := c.lwps[l2].Prio; p != 20 {
		t.Errorf("unboosted wake changed Prio to %d", p)
	}
}

// TestDispatchAndPreempt: a low-priority runner is evicted by a
// higher-priority arrival under ts, but never under fifo or with
// NoPreemption.
func TestDispatchAndPreempt(t *testing.T) {
	for _, tc := range []struct {
		policy    string
		noPreempt bool
		evicted   bool
	}{
		{"ts", false, true},
		{"ts", true, false},
		{"fifo", false, false},
		{"rr", false, false},
	} {
		c, _ := newFakeCore(t, tc.policy, 1, tc.noPreempt)
		lo := newLWP(c, 10)
		c.pushKernelQ(lo)
		c.DispatchAll()
		if c.cpus[0].lwp != lo {
			t.Fatalf("%s: DispatchAll did not place the only LWP", tc.policy)
		}
		hi := newLWP(c, 50)
		c.pushKernelQ(hi)
		c.PreemptPass()
		if got := c.cpus[0].lwp == hi; got != tc.evicted {
			t.Errorf("%s noPreempt=%v: eviction = %v, want %v",
				tc.policy, tc.noPreempt, got, tc.evicted)
		}
		if err := c.CheckLinks(); err != nil {
			t.Fatalf("%s: %v", tc.policy, err)
		}
	}
}

// TestPreemptPicksLowestVictim: with several preemptable runners the pass
// must evict the lowest-priority one.
func TestPreemptPicksLowestVictim(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 2, false)
	a, b := newLWP(c, 10), newLWP(c, 20)
	c.pushKernelQ(a)
	c.pushKernelQ(b)
	c.DispatchAll()
	hi := newLWP(c, 50)
	c.pushKernelQ(hi)
	c.PreemptPass()
	running := map[int32]bool{}
	for _, cn := range c.cpus {
		if cn.lwp != nilIdx {
			running[cn.lwp] = true
		}
	}
	if !running[hi] || !running[b] || running[a] {
		t.Errorf("running after preemption = %v, want the prio-10 LWP %d evicted", running, a)
	}
}

// TestBoundCPUAffinity: an LWP whose thread is pinned to CPU 1 must not be
// dispatched to CPU 0, even when CPU 0 idles.
func TestBoundCPUAffinity(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 2, false)
	pinned := newLWP(c, 29)
	threadOf(c, pinned).BoundCPU = 1
	c.pushKernelQ(pinned)
	c.DispatchAll()
	if c.cpus[0].lwp != nilIdx {
		t.Fatal("CPU-0 ran an LWP pinned to CPU 1")
	}
	if c.cpus[1].lwp != pinned {
		t.Fatal("pinned LWP not dispatched to its CPU")
	}
}

// key is a listed timer's key in the timer heap.
type key struct {
	at  vtime.Time
	seq uint64
}

// listed returns the key of the timer listed in the CPU's slot of kind
// k, and whether there is one.
func listed(c *Core, cpu int32, k EventKind) (key, bool) {
	at, seq, ok := c.timers.Key(timerSlot(cpu, k))
	return key{at, seq}, ok
}

// TestArmSlice: ts arms a table-quantum timer, fifo arms nothing
// (run-to-block), and each arm replaces the CPU's listed timer.
func TestArmSlice(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 1, false)
	l := newLWP(c, dispatch.DefaultPriority)
	ln := &c.lwps[l]
	ln.QuantumLeft = c.policy.Quantum(ln.Prio)
	c.armSlice(0, ln)
	first, ok := listed(c, 0, EvSlice)
	if !ok || c.timers.Len() != 1 || first.at != vtime.Time(0).Add(c.policy.Quantum(dispatch.DefaultPriority)) {
		t.Fatalf("ts armSlice listed %d timers, slice at %v, want one at the table quantum", c.timers.Len(), first.at)
	}
	c.armSlice(0, ln)
	if again, _ := listed(c, 0, EvSlice); c.timers.Len() != 1 || again.seq <= first.seq {
		t.Fatalf("re-arm: %d timers, seq %d -> %d, want the one listed timer replaced",
			c.timers.Len(), first.seq, again.seq)
	}

	cf, _ := newFakeCore(t, "fifo", 1, false)
	lf := newLWP(cf, 29)
	cf.armSlice(0, &cf.lwps[lf])
	if cf.timers.Len() != 0 {
		t.Fatal("fifo armSlice must not arm a timer")
	}
}

// TestSliceExpiredDemotesAndYields drives the full expiry path on the
// core: the ts policy demotes the runner and yields to an equal-priority
// waiter, re-dispatching the waiter onto the CPU.
func TestSliceExpiredDemotesAndYields(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 1, false)
	runner := newLWP(c, 29)
	c.pushKernelQ(runner)
	c.DispatchAll()
	waiter := newLWP(c, 19) // matches 29's post-expiry priority
	c.pushKernelQ(waiter)

	threadOf(c, runner).WorkLeft = 100
	*c.now = 5
	if !c.sliceExpired(0) {
		t.Fatal("expiry with an equal-priority waiter must yield")
	}
	if p := c.lwps[runner].Prio; p != 19 {
		t.Errorf("runner Prio = %d, want the tqexp demotion to 19", p)
	}
	c.DispatchAll()
	if c.cpus[0].lwp != waiter {
		t.Error("waiter should take over the CPU after the yield")
	}
	if got := threadOf(c, runner).CPUTime; got != 5 {
		t.Errorf("runner CPUTime = %v, want 5: expiry must account CPU time before rescheduling", got)
	}

	// Without a waiter the runner is demoted but keeps the CPU.
	c2, _ := newFakeCore(t, "ts", 1, false)
	solo := newLWP(c2, 29)
	c2.pushKernelQ(solo)
	c2.DispatchAll()
	if c2.sliceExpired(0) {
		t.Fatal("expiry without a waiter must not yield")
	}
	if c2.cpus[0].lwp != solo || c2.lwps[solo].Prio != 19 {
		t.Errorf("solo runner: lwp=%d prio=%d, want kept CPU at prio 19", c2.cpus[0].lwp, c2.lwps[solo].Prio)
	}
}

// TestNextThreadFastPath: a pool LWP whose thread blocked takes the next
// queued thread without a trip through the kernel queue, and idles when
// none waits.
func TestNextThreadFastPath(t *testing.T) {
	c, eng := newFakeCore(t, "ts", 1, false)
	l := newLWP(c, 29)
	c.pushKernelQ(l)
	c.DispatchAll()

	// The next thread's call completed while it waited for an LWP.
	next := addThread(c, 29)
	c.threads[next].Stage = StageWaiting
	c.pushUserRunQ(next)
	c.release(threadOf(c, l))
	c.nextThread(0)
	if c.lwps[l].thread != next || c.threads[next].lwp != l {
		t.Fatal("nextThread did not attach the queued thread")
	}
	if n := c.threads[next]; n.State != Running || n.LastCPU != 0 {
		t.Fatalf("next thread is %v on CPU %d, want running on CPU 0", n.State, n.LastCPU)
	}
	if !slices.Equal(eng.completed, []int32{next}) {
		t.Fatalf("engine.Complete calls = %v, want [%d]", eng.completed, next)
	}

	// Queue empty: the LWP unlinks and idles.
	c.release(c.threads[next])
	c.nextThread(0)
	if c.cpus[0].lwp != nilIdx || c.lwps[l].cpu != nilIdx {
		t.Fatal("nextThread with an empty queue must unlink the LWP")
	}
	if !slices.Equal(c.idleLWPs, []int32{l}) {
		t.Fatal("LWP should join the idle pool")
	}
}

// TestUnlinkDisarmsTimers: a placement arms its CPU's burst and slice, a
// burst re-arm re-keys the CPU's burst slot in place, and unlink, the
// single requeue helper both engines funnel through, disarms both slots.
func TestUnlinkDisarmsTimers(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 1, false)
	l := newLWP(c, 29)
	threadOf(c, l).WorkLeft = 50
	c.pushKernelQ(l)
	c.DispatchAll()
	first, burst := listed(c, 0, EvBurst)
	if _, slice := listed(c, 0, EvSlice); !burst || !slice || c.timers.Len() != 2 {
		t.Fatalf("placement: burst armed %v, slice armed %v, %d timers listed; want both and no other", burst, slice, c.timers.Len())
	}
	*c.now = 10
	c.armBurst(0, threadOf(c, l))
	if again, _ := listed(c, 0, EvBurst); c.timers.Len() != 2 || again.at != 60 || again.seq <= first.seq {
		t.Fatalf("burst re-arm: %d timers, burst at %v seq %d -> %d; want two, the burst replaced at 60",
			c.timers.Len(), again.at, first.seq, again.seq)
	}
	c.unlink(0)
	_, burst = listed(c, 0, EvBurst)
	if _, slice := listed(c, 0, EvSlice); burst || slice || c.timers.Len() != 0 {
		t.Errorf("unlink: burst armed %v, slice armed %v, %d timers listed; want none", burst, slice, c.timers.Len())
	}
	if c.cpus[0].lwp != nilIdx || c.lwps[l].cpu != nilIdx {
		t.Error("unlink must clear both links")
	}
}

// TestCheckLinks: a consistent machine passes the link check, and each
// broken link below is named.
func TestCheckLinks(t *testing.T) {
	// build sets up two CPUs, one running LWP, one queued and one idle
	// LWP, and one thread waiting for an LWP.
	build := func() (c *Core, running, queued, idle, waiting int32) {
		c, _ = newFakeCore(t, "ts", 2, true)
		running, queued = newLWP(c, 29), newLWP(c, 29)
		threadOf(c, running).BoundCPU = 0
		threadOf(c, queued).BoundCPU = 0
		c.pushKernelQ(running)
		c.DispatchAll()
		c.pushKernelQ(queued)
		c.DispatchAll()
		idle = c.newLWP(false)
		c.idleLWPs = append(c.idleLWPs, idle)
		waiting = addThread(c, 29)
		c.threads[waiting].To(Runnable, 0, -1, -1)
		c.pushUserRunQ(waiting)
		return
	}
	if c, _, _, _, _ := build(); c.CheckLinks() != nil {
		t.Fatalf("consistent machine: %v", c.CheckLinks())
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(c *Core, running, queued, idle, waiting int32)
	}{
		{"duplicate queue entry", "both in kernelQ and in kernelQ", func(c *Core, _, queued, _, _ int32) {
			c.kernelQ = append(c.kernelQ, queued)
		}},
		{"queued idle LWP", "both in kernelQ and idle", func(c *Core, _, queued, _, _ int32) {
			c.idleLWPs = append(c.idleLWPs, queued)
		}},
		{"queued LWP still on a CPU", "both on cpu 0 and in kernelQ", func(c *Core, running, _, _, _ int32) {
			c.kernelQ = append(c.kernelQ, running)
		}},
		{"queued LWP claims a CPU", "claims cpu 1", func(c *Core, _, queued, _, _ int32) {
			c.lwps[queued].cpu = 1
		}},
		{"CPU and LWP disagree", "points elsewhere", func(c *Core, running, _, _, _ int32) {
			c.lwps[running].cpu = 1
		}},
		{"idle count", "counted", func(c *Core, _, _, _, _ int32) {
			c.idleCPUs++
		}},
		{"idle LWP with a thread", "idle LWP", func(c *Core, _, _, idle, waiting int32) {
			c.lwps[idle].thread = waiting
		}},
		{"thread points at another's LWP", "carries another thread", func(c *Core, running, _, _, waiting int32) {
			c.threads[waiting].lwp = running
		}},
		{"running thread off its CPU", "has no LWP/CPU", func(c *Core, _, queued, _, _ int32) {
			threadOf(c, queued).State = Running
		}},
		{"queued thread not runnable", "in userRunQ is", func(c *Core, _, _, _, waiting int32) {
			c.threads[waiting].State = Sleeping
		}},
		{"idle CPU with a timer", "idle cpu 1 has an armed timer", func(c *Core, _, _, _, _ int32) {
			c.timers.Arm(timerSlot(1, EvSlice), 5)
		}},
		{"busy CPU without a burst", "busy cpu 0 has no burst timer", func(c *Core, _, _, _, _ int32) {
			c.timers.Disarm(timerSlot(0, EvBurst))
		}},
	} {
		c, running, queued, idle, waiting := build()
		tc.mutate(c, running, queued, idle, waiting)
		if err := c.CheckLinks(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckLinks = %v, want an error with %q", tc.name, err, tc.want)
		}
	}
}

// ---- event loop ------------------------------------------------------------

// TestRunDrivesCalls: the drive takes a thread through its calls, one tick
// of burst and one of call cost each, and a thread whose last call's
// Complete ends it (a replay whose records are exhausted) is not driven
// further: no Reach follows, and the run ends with no thread live.
func TestRunDrivesCalls(t *testing.T) {
	s := newFakeSource(t, 1, 2)
	if err := s.c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"reach 0 @1", "apply 0 @2", "complete 0 @2", "reach 0 @3", "apply 0 @4", "complete 0 @4"}
	if !slices.Equal(s.log, want) {
		t.Fatalf("drive = %q, want %q", s.log, want)
	}
	if s.c.Live() != 0 || s.c.timers.Len() != 0 {
		t.Fatalf("after the exit: %d live, %d timers listed", s.c.Live(), s.c.timers.Len())
	}
}

// TestRunBlockedApplyHandsCPUBack: a call that blocks ends the drive
// without Complete and hands the CPU to the next thread at once; the
// blocked call completes when the thread is woken and runs again.
func TestRunBlockedApplyHandsCPUBack(t *testing.T) {
	s := newFakeSource(t, 1, 1, 1)
	s.apply = func(cpu, ti int32) bool {
		if ti == 0 {
			s.c.Block(cpu, ti)
			return true
		}
		s.c.Wake(0, false)
		return false
	}
	if err := s.c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"reach 0 @1", "apply 0 @2", "reach 1 @3", "apply 1 @4", "complete 1 @4", "complete 0 @4"}
	if !slices.Equal(s.log, want) {
		t.Fatalf("drive = %q, want %q", s.log, want)
	}
	if err := s.c.CheckLinks(); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeadlock: live threads and an empty queue end the run with the
// source's deadlock error.
func TestRunDeadlock(t *testing.T) {
	s := newFakeSource(t, 2, 1)
	s.apply = func(cpu, ti int32) bool {
		s.c.Block(cpu, ti)
		return true
	}
	if err := s.c.Run(); err != errFakeDeadlock || s.deadlocks != 1 {
		t.Fatalf("Run = %v after %d Deadlock calls, want the source's deadlock error once", err, s.deadlocks)
	}
	if s.c.Live() != 1 {
		t.Fatalf("%d live, want the blocked thread", s.c.Live())
	}
}

// TestRunFirstFailWins: the first Fail is the run's error, and the loop
// stops before the next event is stepped or handled, whether the failure
// comes from handling an event or from Step.
func TestRunFirstFailWins(t *testing.T) {
	errFirst, errLater := errors.New("first"), errors.New("later")
	for _, tc := range []struct {
		name        string
		failInStep  bool
		wantHandled []int32
	}{
		{"handle", false, []int32{0, 1}},
		{"step", true, []int32{0}},
	} {
		// One thread, started and never woken, keeps the run live.
		s := newFakeSource(t, 1)
		s.c.Start(addThread(s.c, 29))
		for who := range int32(3) {
			s.c.Arm(s.c.AddTimer(Event{Kind: EvEngine, Who: who}), vtime.Time(who+1))
		}
		fail := func(ev Event) {
			if ev.Who == 1 {
				s.c.Fail(errFirst)
				s.c.Fail(errLater)
			}
		}
		if tc.failInStep {
			s.step = fail
		} else {
			s.handle = fail
		}
		if err := s.c.Run(); err != errFirst {
			t.Errorf("%s: Run = %v, want the first failure", tc.name, err)
		}
		if !slices.Equal(s.stepped, []int32{0, 1}) || !slices.Equal(s.handled, tc.wantHandled) {
			t.Errorf("%s: stepped %v and handled %v, want [0 1] and %v", tc.name, s.stepped, s.handled, tc.wantHandled)
		}
	}
}
