package sched

import (
	"math/rand"
	"testing"

	"vppb/internal/dispatch"
	"vppb/internal/vtime"
)

// TestStaleSliceEventDropped pins how a slice timer goes stale without an
// epoch: a slice event applies the policy's quantum-expiry rules and
// re-arms the slice in place of the delivered one, and Unlink (the single
// requeue helper) takes the CPU's timer out of the ring, so a slice
// event that has gone stale is never delivered.
func TestStaleSliceEventDropped(t *testing.T) {
	c, _, cpus := newFakeCore(t, "ts", 1, false)
	l := newLWP(1, dispatch.DefaultPriority)
	cpu := cpus[0]
	link(c, cpu, l)

	// tqexp demotion 29 -> 19, no yield with an empty kernel queue, and
	// the next slice re-armed.
	want := dispatch.NewTable().AfterQuantumExpiry(dispatch.DefaultPriority)
	c.Handle(Event{Kind: EvSlice, Who: 0})
	if l.Prio != want {
		t.Fatalf("slice event: Prio = %d, want the tqexp demotion to %d", l.Prio, want)
	}
	if cpu.lwp != l {
		t.Fatal("runner with no competitor must keep its CPU")
	}
	if c.slices.n != 1 || c.slices.peek().at != vtime.Time(0).Add(c.Quantum(want)) {
		t.Fatal("next slice event not re-armed for the demoted quantum")
	}

	// Unlink drops the timer armed above: relinked to the CPU, the LWP
	// has no slice event left to receive.
	c.Unlink(cpu, l)
	if c.slices.n != 0 {
		t.Fatal("Unlink left the slice timer listed")
	}
	link(c, cpu, l)
	if at, ev, ok := c.Pop(); ok {
		t.Fatalf("Pop delivered %+v at %v after Unlink", ev, at)
	}
}

// TestDispatchOverheadRules pins when a CPU owes dispatch overhead, and
// that it is paid before the thread's work: a context switch when a CPU
// places another LWP than the one it last ran (not the same one again),
// a context switch on every run-to-next-thread switch, and a migration
// whenever the thread last ran on another CPU. A Core built with zero
// costs charges nothing.
func TestDispatchOverheadRules(t *testing.T) {
	for _, costs := range []Overheads{{ContextSwitch: 10, Migration: 100}, {}} {
		c, _, cpus := newFakeCoreCosts(t, "ts", 2, false, costs)
		cs, mig := costs.ContextSwitch, costs.Migration
		// thread makes an unbound thread pinned to CPU 0 that last ran on
		// lastCPU.
		thread := func(id, lastCPU int) *fakeThread {
			return &fakeThread{ThreadNode: ThreadNode{LastCPU: lastCPU, WorkLeft: 50}, id: id, prio: 29, boundCPU: 0}
		}
		place := func(l *fakeLWP) {
			t.Helper()
			c.PushKernelQ(l)
			c.DispatchAll()
			if cpus[0].lwp != l {
				t.Fatalf("LWP %d not placed on CPU 0", l.ID)
			}
		}
		owes := func(what string, want vtime.Duration) {
			t.Helper()
			if got := cpus[0].overhead; got != want {
				t.Errorf("costs %+v, %s: CPU 0 owes %v, want %v", costs, what, got, want)
			}
		}
		lwp := func(id int, t *fakeThread) *fakeLWP {
			l := &fakeLWP{LWPNode: LWPNode{ID: id, Prio: 29}, thread: t}
			t.lwp = l
			return l
		}
		a := lwp(1, thread(1, -1))

		place(a)
		owes("first placement", cs)
		// The burst timer covers the overhead and then the work.
		if at, ev, _ := c.Pop(); ev.Kind != EvBurst || at != vtime.Time(cs+50) {
			t.Errorf("costs %+v: burst %v at %v, want a burst at %v", costs, ev.Kind, at, cs+50)
		}

		// Accounting pays the overhead first: 5 past it, the thread has
		// used 5 of its work and the LWP 5 + cs of its quantum.
		q := a.QuantumLeft
		*c.now = vtime.Time(cs + 5)
		c.account(&cpus[0].CPUNode)
		owes("after accounting past it", 0)
		if a.thread.CPUTime != 5 || a.thread.WorkLeft != 45 || a.QuantumLeft != q-(cs+5) {
			t.Errorf("costs %+v: CPUTime %v WorkLeft %v quantum used %v, want 5, 45 and %v",
				costs, a.thread.CPUTime, a.thread.WorkLeft, q-a.QuantumLeft, cs+5)
		}

		c.Undispatch(cpus[0])
		c.DispatchAll()
		owes("the same LWP placed again", 0)

		c.Undispatch(cpus[0])
		c.removeKernelQ(a)
		b := lwp(2, thread(2, 0))
		place(b)
		owes("another LWP placed", cs)

		c.Undispatch(cpus[0])
		c.removeKernelQ(b)
		b.thread.LastCPU = 1
		place(b)
		owes("the last LWP placed, its thread migrating", mig)

		// Run-to-next-thread: b's thread blocks and b takes the next
		// queued thread, which last ran here, then one that migrates.
		c.account(&cpus[0].CPUNode) // nothing elapsed: the overhead stays owed
		next := thread(3, 0)
		c.PushUserRunQ(next)
		c.Block(cpus[0], b.thread)
		if b.thread != next {
			t.Fatal("NextThread did not hand LWP 2 the queued thread")
		}
		owes("a switch to the next thread", mig+cs)
		*c.now = c.now.Add(mig + cs)
		c.account(&cpus[0].CPUNode)
		c.PushUserRunQ(thread(4, 1))
		c.Block(cpus[0], next)
		owes("a switch to a migrating next thread", cs+mig)
	}
}

// TestMergedPopMatchesOneQueue drives random sequences of slice arms,
// re-arms, unlinks and engine pushes through the Core's merged pop — the
// event queue plus the slice ring — and requires exactly the delivery of
// one plain EventQueue that holds every timer ever armed and skips the
// stale ones (an armed slice whose LWP's epoch has since moved on).
func TestMergedPopMatchesOneQueue(t *testing.T) {
	const seeds = 500
	var slices, ties int
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, _, cpus := newFakeCore(t, "ts", 1+rng.Intn(6), false)
		lwps := make([]*fakeLWP, len(cpus))
		for i, cpu := range cpus {
			lwps[i] = newLWP(i, 29)
			link(c, cpu, lwps[i])
		}
		// The reference queue keeps every armed slice timer, stamped with
		// a per-CPU arm count, and skips the ones re-armed or unlinked
		// since.
		var ref vtime.EventQueue[Event]
		armed := make([]uint64, len(cpus))
		var last vtime.Time
		pop := func() bool {
			at, ev, ok := c.Pop()
			var wantAt vtime.Time
			var want Event
			wantOK := false
			for ref.Len() > 0 {
				wantAt, want = ref.Pop()
				if want.Kind != EvSlice {
					wantOK = true
					break
				}
				if want.Epoch == armed[want.Who] {
					want.Epoch = 0
					wantOK = true
					break
				}
			}
			if ok != wantOK || (ok && (at != wantAt || ev != want)) {
				t.Fatalf("seed %d: Pop = (%v, %+v, %v), want (%v, %+v, %v)", seed, at, ev, ok, wantAt, want, wantOK)
			}
			if ok {
				if ev.Kind == EvSlice {
					slices++
				}
				if at == last {
					ties++
				}
				last = at
				*c.now = at
			}
			return ok
		}
		for op := 0; op < 200; op++ {
			now := *c.now
			switch i := rng.Intn(len(cpus)); rng.Intn(5) {
			case 0, 1: // arm or re-arm CPU i's slice for a short quantum
				l := lwps[i]
				l.QuantumLeft = vtime.Duration(rng.Intn(4) * 10)
				if l.QuantumLeft == 0 {
					l.QuantumLeft = -1 // exhausted: refilled from the policy
				}
				c.armSlice(&cpus[i].CPUNode, &l.LWPNode)
				armed[i]++
				ref.Push(now.Add(l.QuantumLeft), Event{Kind: EvSlice, Who: int32(i), Epoch: armed[i]})
			case 2: // CPU i's LWP leaves and comes back
				c.Unlink(cpus[i], lwps[i])
				armed[i]++
				link(c, cpus[i], lwps[i])
			case 3: // an engine event
				ev := Event{Kind: EvEngine, Who: int32(rng.Intn(8)), Epoch: uint64(op)}
				at := now.Add(vtime.Duration(rng.Intn(4) * 10))
				c.Push(at, ev)
				ref.Push(at, ev)
			case 4:
				pop()
			}
		}
		for pop() {
		}
	}
	if slices == 0 || ties == 0 {
		t.Fatalf("coverage: %d slice deliveries, %d deliveries tied with the one before", slices, ties)
	}
}

// TestPeakAndContended pins what a run proves about its machine. Each
// placement raises PeakRunning to one more than its CPU's index, so a
// thread bound to a high CPU counts the CPUs below it. Contended turns on
// when a pass leaves an LWP in the kernel queue or a thread in the user
// run queue, and on any eviction, even one whose LWP finds another CPU in
// the same pass.
func TestPeakAndContended(t *testing.T) {
	c, _, _ := newFakeCore(t, "ts", 4, true)
	pass := func() { c.DispatchAll(); c.PreemptPass() }
	a, b := newLWP(1, 29), newLWP(2, 29)
	c.PushKernelQ(a)
	c.PushKernelQ(b)
	pass()
	if c.PeakRunning() != 2 || c.Contended() {
		t.Fatalf("two LWPs on four CPUs: peak %d, contended %v; want 2, false", c.PeakRunning(), c.Contended())
	}
	pinned := newLWP(3, 29)
	pinned.thread.boundCPU = 3
	c.PushKernelQ(pinned)
	pass()
	if c.PeakRunning() != 4 || c.Contended() {
		t.Fatalf("an LWP bound to CPU 3: peak %d, contended %v; want 4, false", c.PeakRunning(), c.Contended())
	}

	// A thread left waiting for an LWP.
	c2, _, _ := newFakeCore(t, "ts", 2, false)
	c2.PushUserRunQ(&fakeThread{id: 9, prio: 29, boundCPU: -1})
	c2.DispatchAll()
	c2.PreemptPass()
	if !c2.Contended() {
		t.Fatal("a pass that leaves the user run queue non-empty must mark the run contended")
	}

	// An LWP left waiting for a CPU, with preemption off.
	c3, _, _ := newFakeCore(t, "fifo", 1, true)
	c3.PushKernelQ(newLWP(1, 29))
	c3.PushKernelQ(newLWP(2, 29))
	c3.DispatchAll()
	c3.PreemptPass()
	if !c3.Contended() || c3.PeakRunning() != 1 {
		t.Fatalf("two LWPs on one CPU: contended %v, peak %d; want true, 1", c3.Contended(), c3.PeakRunning())
	}

	// An eviction counts though the pass places the LWP again at once.
	c4, _, cpus4 := newFakeCore(t, "ts", 2, false)
	l := newLWP(1, 29)
	c4.PushKernelQ(l)
	c4.DispatchAll()
	c4.PreemptPass()
	c4.Undispatch(cpus4[0])
	c4.DispatchAll()
	c4.PreemptPass()
	if !c4.Contended() || len(c4.KernelQ()) != 0 {
		t.Fatalf("eviction: contended %v with %d queued; want true with none queued", c4.Contended(), len(c4.KernelQ()))
	}
}
