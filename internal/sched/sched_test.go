package sched

import (
	"strings"
	"testing"

	"vppb/internal/dispatch"
	"vppb/internal/vtime"
)

// ---- fake engine -----------------------------------------------------------

type fakeThread struct {
	ThreadNode
	id       int
	prio     int
	bound    bool
	boundCPU int
	lwp      *fakeLWP
}

func (t *fakeThread) Node() *ThreadNode      { return &t.ThreadNode }
func (t *fakeThread) SchedPrio() int         { return t.prio }
func (t *fakeThread) SchedBound() bool       { return t.bound }
func (t *fakeThread) SchedBoundCPU() int     { return t.boundCPU }
func (t *fakeThread) SchedLWP() *fakeLWP     { return t.lwp }
func (t *fakeThread) SetSchedLWP(l *fakeLWP) { t.lwp = l }

type fakeLWP struct {
	LWPNode
	thread *fakeThread
	cpu    *fakeCPU
}

func (l *fakeLWP) Node() *LWPNode               { return &l.LWPNode }
func (l *fakeLWP) SchedThread() *fakeThread     { return l.thread }
func (l *fakeLWP) SetSchedThread(t *fakeThread) { l.thread = t }
func (l *fakeLWP) SchedCPU() *fakeCPU           { return l.cpu }
func (l *fakeLWP) SetSchedCPU(c *fakeCPU)       { l.cpu = c }

type fakeCPU struct {
	CPUNode
	lwp *fakeLWP
}

func (c *fakeCPU) Node() *CPUNode         { return &c.CPUNode }
func (c *fakeCPU) SchedLWP() *fakeLWP     { return c.lwp }
func (c *fakeCPU) SetSchedLWP(l *fakeLWP) { c.lwp = l }

// fakeEngine records the callback sequence the Core drives.
type fakeEngine struct {
	completed []int // thread IDs, in Complete order
	woken     []int32
}

func (e *fakeEngine) Complete(_ *fakeCPU, t *fakeThread) { e.completed = append(e.completed, t.id) }
func (e *fakeEngine) Wake(ti, _ int32)                   { e.woken = append(e.woken, ti) }

func newFakeCore(t *testing.T, policy string, nCPUs int, noPreempt bool) (*Core[*fakeThread, *fakeLWP, *fakeCPU], *fakeEngine, []*fakeCPU) {
	t.Helper()
	return newFakeCoreCosts(t, policy, nCPUs, noPreempt, Overheads{})
}

// newFakeCoreCosts is newFakeCore with dispatch overheads.
func newFakeCoreCosts(t *testing.T, policy string, nCPUs int, noPreempt bool, costs Overheads) (*Core[*fakeThread, *fakeLWP, *fakeCPU], *fakeEngine, []*fakeCPU) {
	t.Helper()
	pol, err := New(policy)
	if err != nil {
		t.Fatal(err)
	}
	cpus := make([]*fakeCPU, nCPUs)
	for i := range cpus {
		cpus[i] = &fakeCPU{CPUNode: CPUNode{ID: i}}
	}
	eng := &fakeEngine{}
	return NewCore[*fakeThread, *fakeLWP, *fakeCPU](pol, eng, new(vtime.Time), cpus, noPreempt, costs, 0), eng, cpus
}

// link runs l on the idle cpu without starting its thread (no overheads,
// no timers), the way a test sets up a running machine.
func link(c *Core[*fakeThread, *fakeLWP, *fakeCPU], cpu *fakeCPU, l *fakeLWP) {
	cpu.lwp, l.cpu = l, cpu
	cpu.CPUNode.lwp, cpu.thread = &l.LWPNode, &l.thread.ThreadNode
	c.idleCPUs--
}

func newLWP(id, prio int) *fakeLWP {
	t := &fakeThread{id: id, prio: prio, boundCPU: -1}
	l := &fakeLWP{LWPNode: LWPNode{ID: id, Prio: prio}, thread: t}
	t.lwp = l
	return l
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
	c, _, _ := newFakeCore(t, "ts", 1, false)
	a, b, hi, lo := newLWP(1, 20), newLWP(2, 20), newLWP(3, 40), newLWP(4, 10)
	for _, l := range []*fakeLWP{a, b, hi, lo} {
		c.PushKernelQ(l)
	}
	var ids []int
	for _, l := range c.KernelQ() {
		ids = append(ids, l.ID)
	}
	want := []int{3, 1, 2, 4} // hi, then a before b (FIFO at 20), then lo
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("kernel queue order = %v, want %v", ids, want)
		}
	}
	if !c.removeKernelQ(b) || c.removeKernelQ(b) {
		t.Fatal("removeKernelQ must remove exactly once")
	}
}

func TestUserRunQueueOrder(t *testing.T) {
	c, _, _ := newFakeCore(t, "ts", 1, false)
	t1 := &fakeThread{id: 1, prio: 20, boundCPU: -1}
	t2 := &fakeThread{id: 2, prio: 20, boundCPU: -1}
	t3 := &fakeThread{id: 3, prio: 50, boundCPU: -1}
	for _, th := range []*fakeThread{t1, t2, t3} {
		c.PushUserRunQ(th)
	}
	if got := c.PopUserRunQ(); got != t3 {
		t.Fatalf("PopUserRunQ = T%d, want the high-priority T3", got.id)
	}
	if got := c.PopUserRunQ(); got != t1 {
		t.Fatalf("PopUserRunQ = T%d, want T1 (FIFO within priority)", got.id)
	}
	if c.PopUserRunQ() != t2 || c.PopUserRunQ() != nil {
		t.Fatal("queue should drain to nil")
	}
}

// TestWakePaths covers the three Wake outcomes: a bound thread requeues
// its dedicated LWP, an unbound thread grabs the OLDEST idle pool LWP
// (the pool is a queue, not a stack), and with no idle LWP the thread
// parks on the user run queue.
func TestWakePaths(t *testing.T) {
	c, _, _ := newFakeCore(t, "ts", 1, false)

	bound := newLWP(1, 29)
	bound.thread.bound = true
	c.Wake(bound.thread, false)
	if len(c.KernelQ()) != 1 || c.KernelQ()[0] != bound {
		t.Fatal("bound wake must requeue the dedicated LWP")
	}
	c.removeKernelQ(bound)

	idleA := &fakeLWP{LWPNode: LWPNode{ID: 10, Prio: 29}}
	idleB := &fakeLWP{LWPNode: LWPNode{ID: 11, Prio: 29}}
	c.AddIdleLWP(idleA)
	c.AddIdleLWP(idleB)
	u := &fakeThread{id: 2, prio: 29, boundCPU: -1}
	c.Wake(u, false)
	if u.lwp != idleA {
		t.Fatal("unbound wake must pop the front of the idle pool")
	}
	if len(c.IdleLWPs()) != 1 || c.IdleLWPs()[0] != idleB {
		t.Fatal("idle pool should retain the younger LWP")
	}

	p := &fakeThread{id: 3, prio: 29, boundCPU: -1}
	c.Wake(p, false) // idleB is still idle... but taken below
	parked := &fakeThread{id: 4, prio: 29, boundCPU: -1}
	c.Wake(parked, false)
	if len(c.UserRunQ()) != 1 || c.UserRunQ()[0] != parked {
		t.Fatalf("with the pool empty the thread must park on the user run queue (runq=%v)", c.UserRunQ())
	}
	if parked.State != Runnable {
		t.Fatalf("parked thread is %v, want runnable", parked.State)
	}
}

// TestWakeBoost: the policy's sleep-return lift applies only when boost is
// set, and a woken LWP always gets a fresh quantum.
func TestWakeBoost(t *testing.T) {
	c, _, _ := newFakeCore(t, "ts", 1, false)
	table := dispatch.NewTable()

	l := newLWP(1, 20)
	l.thread.bound = true
	l.QuantumLeft = 1 // nearly exhausted
	c.Wake(l.thread, true)
	if l.Prio != table.AfterSleepReturn(20) {
		t.Errorf("boosted wake Prio = %d, want slpret %d", l.Prio, table.AfterSleepReturn(20))
	}
	if l.QuantumLeft != c.Quantum(l.Prio) {
		t.Errorf("woken LWP QuantumLeft = %v, want a fresh %v", l.QuantumLeft, c.Quantum(l.Prio))
	}

	l2 := newLWP(2, 20)
	l2.thread.bound = true
	c.Wake(l2.thread, false)
	if l2.Prio != 20 {
		t.Errorf("unboosted wake changed Prio to %d", l2.Prio)
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
		c, _, cpus := newFakeCore(t, tc.policy, 1, tc.noPreempt)
		lo := newLWP(1, 10)
		c.PushKernelQ(lo)
		c.DispatchAll()
		if cpus[0].lwp != lo {
			t.Fatalf("%s: DispatchAll did not place the only LWP", tc.policy)
		}
		hi := newLWP(2, 50)
		c.PushKernelQ(hi)
		c.PreemptPass()
		if got := cpus[0].lwp == hi; got != tc.evicted {
			t.Errorf("%s noPreempt=%v: eviction = %v, want %v",
				tc.policy, tc.noPreempt, got, tc.evicted)
		}
	}
}

// TestPreemptPicksLowestVictim: with several preemptable runners the pass
// must evict the lowest-priority one.
func TestPreemptPicksLowestVictim(t *testing.T) {
	c, _, cpus := newFakeCore(t, "ts", 2, false)
	a, b := newLWP(1, 10), newLWP(2, 20)
	c.PushKernelQ(a)
	c.PushKernelQ(b)
	c.DispatchAll()
	hi := newLWP(3, 50)
	c.PushKernelQ(hi)
	c.PreemptPass()
	running := map[int]bool{}
	for _, cpu := range cpus {
		if cpu.lwp != nil {
			running[cpu.lwp.ID] = true
		}
	}
	if !running[3] || !running[2] || running[1] {
		t.Errorf("running after preemption = %v, want the prio-10 LWP evicted", running)
	}
}

// TestBoundCPUAffinity: an LWP whose thread is pinned to CPU 1 must not be
// dispatched to CPU 0, even when CPU 0 idles.
func TestBoundCPUAffinity(t *testing.T) {
	c, _, cpus := newFakeCore(t, "ts", 2, false)
	pinned := newLWP(1, 29)
	pinned.thread.boundCPU = 1
	c.PushKernelQ(pinned)
	c.DispatchAll()
	if cpus[0].lwp != nil {
		t.Fatal("CPU-0 ran an LWP pinned to CPU 1")
	}
	if cpus[1].lwp != pinned {
		t.Fatal("pinned LWP not dispatched to its CPU")
	}
}

// TestArmSlice: ts arms a table-quantum timer, fifo arms nothing
// (run-to-block), and each arm replaces the CPU's listed timer.
func TestArmSlice(t *testing.T) {
	c, _, cpus := newFakeCore(t, "ts", 1, false)
	l := newLWP(1, dispatch.DefaultPriority)
	l.QuantumLeft = c.Quantum(l.Prio)
	c.armSlice(&cpus[0].CPUNode, &l.LWPNode)
	first := *c.slices.peek()
	if c.slices.n != 1 || first.at != vtime.Time(0).Add(c.Quantum(dispatch.DefaultPriority)) {
		t.Fatalf("ts armSlice listed %d timers, first at %v, want one at the table quantum", c.slices.n, first.at)
	}
	c.armSlice(&cpus[0].CPUNode, &l.LWPNode)
	if c.slices.n != 1 || c.slices.peek().seq <= first.seq {
		t.Fatalf("re-arm: %d timers, seq %d -> %d, want the one listed timer replaced",
			c.slices.n, first.seq, c.slices.peek().seq)
	}

	cf, _, cpusf := newFakeCore(t, "fifo", 1, false)
	lf := newLWP(1, 29)
	cf.armSlice(&cpusf[0].CPUNode, &lf.LWPNode)
	if cf.slices.n != 0 {
		t.Fatal("fifo armSlice must not arm a timer")
	}
}

// TestSliceExpiredDemotesAndYields drives the full expiry path on the
// core: the ts policy demotes the runner and yields to an equal-priority
// waiter, re-dispatching the waiter onto the CPU.
func TestSliceExpiredDemotesAndYields(t *testing.T) {
	c, _, cpus := newFakeCore(t, "ts", 1, false)
	runner := newLWP(1, 29)
	c.PushKernelQ(runner)
	c.DispatchAll()
	waiter := newLWP(2, 19) // matches 29's post-expiry priority
	c.PushKernelQ(waiter)

	runner.thread.WorkLeft = 100
	*c.now = 5
	if !c.sliceExpired(cpus[0]) {
		t.Fatal("expiry with an equal-priority waiter must yield")
	}
	if runner.Prio != 19 {
		t.Errorf("runner Prio = %d, want the tqexp demotion to 19", runner.Prio)
	}
	c.DispatchAll()
	if cpus[0].lwp != waiter {
		t.Error("waiter should take over the CPU after the yield")
	}
	if runner.thread.CPUTime != 5 {
		t.Errorf("runner CPUTime = %v, want 5: expiry must account CPU time before rescheduling", runner.thread.CPUTime)
	}

	// Without a waiter the runner is demoted but keeps the CPU.
	c2, _, cpus2 := newFakeCore(t, "ts", 1, false)
	solo := newLWP(1, 29)
	c2.PushKernelQ(solo)
	c2.DispatchAll()
	if c2.sliceExpired(cpus2[0]) {
		t.Fatal("expiry without a waiter must not yield")
	}
	if cpus2[0].lwp != solo || solo.Prio != 19 {
		t.Errorf("solo runner: lwp=%v prio=%d, want kept CPU at prio 19", cpus2[0].lwp, solo.Prio)
	}
}

// TestNextThreadFastPath: a pool LWP whose thread blocked takes the next
// queued thread without a trip through the kernel queue, and idles when
// none waits.
func TestNextThreadFastPath(t *testing.T) {
	c, eng, cpus := newFakeCore(t, "ts", 1, false)
	l := newLWP(1, 29)
	c.PushKernelQ(l)
	c.DispatchAll()

	// The next thread's call completed while it waited for an LWP.
	next := &fakeThread{ThreadNode: ThreadNode{Stage: StageWaiting, LastCPU: -1}, id: 7, prio: 29, boundCPU: -1}
	c.PushUserRunQ(next)
	l.thread = nil
	c.NextThread(cpus[0], l)
	if l.thread != next || next.lwp != l {
		t.Fatal("NextThread did not attach the queued thread")
	}
	if next.State != Running || next.LastCPU != 0 {
		t.Fatalf("next thread is %v on CPU %d, want running on CPU 0", next.State, next.LastCPU)
	}
	if len(eng.completed) != 1 || eng.completed[0] != 7 {
		t.Fatalf("engine.Complete calls = %v, want [7]", eng.completed)
	}

	// Queue empty: the LWP unlinks and idles.
	l.thread = nil
	c.NextThread(cpus[0], l)
	if cpus[0].lwp != nil || l.cpu != nil {
		t.Fatal("NextThread with an empty queue must unlink the LWP")
	}
	if len(c.IdleLWPs()) != 1 {
		t.Fatal("LWP should join the idle pool")
	}
}

// TestUnlinkInvalidatesEpochs: Unlink is the single requeue helper both
// engines funnel through; it must bump the CPU's burst epoch and drop
// its slice timer.
func TestUnlinkInvalidatesEpochs(t *testing.T) {
	c, _, cpus := newFakeCore(t, "ts", 1, false)
	l := newLWP(1, 29)
	c.PushKernelQ(l)
	c.DispatchAll()
	ce := cpus[0].Epoch
	if c.slices.n != 1 {
		t.Fatalf("placement listed %d slice timers, want 1", c.slices.n)
	}
	c.Unlink(cpus[0], l)
	if cpus[0].Epoch != ce+1 || c.slices.n != 0 {
		t.Errorf("Unlink: cpu epoch %d->%d, %d slice timers listed; want the epoch incremented and none listed",
			ce, cpus[0].Epoch, c.slices.n)
	}
	if cpus[0].lwp != nil || l.cpu != nil {
		t.Error("Unlink must clear both links")
	}
}
