package sched

import (
	"math/rand"
	"testing"

	"vppb/internal/dispatch"
	"vppb/internal/vtime"
)

// TestStaleSliceEventDropped pins how a CPU timer goes stale without an
// epoch: a slice event applies the policy's quantum-expiry rules and
// re-arms the slice in the slot of the delivered one, leaving the burst
// as it is, and unlink (the single requeue helper) disarms both of the
// CPU's slots, so a timer that has gone stale is never delivered.
func TestStaleSliceEventDropped(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 1, false)
	l := newLWP(c, dispatch.DefaultPriority)
	link(c, 0, l)
	threadOf(c, l).WorkLeft = 1000 * vtime.Millisecond
	c.armBurst(0, threadOf(c, l))
	burst, _ := listed(c, 0, EvBurst)

	// tqexp demotion 29 -> 19, no yield with an empty kernel queue, and
	// the next slice re-armed.
	want := dispatch.NewTable().AfterQuantumExpiry(dispatch.DefaultPriority)
	c.handle(Event{Kind: EvSlice, Who: 0})
	if p := c.lwps[l].Prio; p != want {
		t.Fatalf("slice event: Prio = %d, want the tqexp demotion to %d", p, want)
	}
	if c.cpus[0].lwp != l {
		t.Fatal("runner with no competitor must keep its CPU")
	}
	if e, ok := listed(c, 0, EvSlice); !ok || e.at != vtime.Time(0).Add(c.policy.Quantum(want)) {
		t.Fatal("next slice event not re-armed for the demoted quantum")
	}
	if e, _ := listed(c, 0, EvBurst); e != burst || len(c.timers.heap) != 2 {
		t.Fatalf("slice event: burst %+v and %d timers listed, want the burst %+v untouched and the slice", e, len(c.timers.heap), burst)
	}

	// unlink drops both timers armed above: relinked to the CPU, the LWP
	// has no event left to receive.
	c.unlink(0)
	if len(c.timers.heap) != 0 {
		t.Fatal("unlink left a timer listed")
	}
	link(c, 0, l)
	if at, ev, ok := c.pop(); ok {
		t.Fatalf("Pop delivered %+v at %v after unlink", ev, at)
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
		c, _ := newFakeCoreCosts(t, "ts", 2, false, costs)
		cs, mig := costs.ContextSwitch, costs.Migration
		// thread makes an unbound thread pinned to CPU 0 that last ran on
		// lastCPU.
		thread := func(lastCPU int) int32 {
			ti := addThread(c, 29)
			n := c.threads[ti]
			n.LastCPU, n.WorkLeft, n.BoundCPU = lastCPU, 50, 0
			return ti
		}
		place := func(l int32) {
			t.Helper()
			c.pushKernelQ(l)
			c.DispatchAll()
			if c.cpus[0].lwp != l {
				t.Fatalf("LWP %d not placed on CPU 0", l)
			}
		}
		owes := func(what string, want vtime.Duration) {
			t.Helper()
			if got := c.cpus[0].overhead; got != want {
				t.Errorf("costs %+v, %s: CPU 0 owes %v, want %v", costs, what, got, want)
			}
		}
		lwp := func(ti int32) int32 {
			l := c.newLWP(false)
			c.lwps[l].QuantumLeft = 0
			c.pair(ti, l)
			return l
		}
		a := lwp(thread(-1))

		place(a)
		owes("first placement", cs)
		// The burst timer covers the overhead and then the work.
		if at, ev, _ := c.pop(); ev.Kind != EvBurst || at != vtime.Time(cs+50) {
			t.Errorf("costs %+v: burst %v at %v, want a burst at %v", costs, ev.Kind, at, cs+50)
		}

		// Accounting pays the overhead first: 5 past it, the thread has
		// used 5 of its work and the LWP 5 + cs of its quantum.
		q := c.lwps[a].QuantumLeft
		*c.now = vtime.Time(cs + 5)
		c.account(&c.cpus[0])
		owes("after accounting past it", 0)
		if an := threadOf(c, a); an.CPUTime != 5 || an.WorkLeft != 45 || c.lwps[a].QuantumLeft != q-(cs+5) {
			t.Errorf("costs %+v: CPUTime %v WorkLeft %v quantum used %v, want 5, 45 and %v",
				costs, an.CPUTime, an.WorkLeft, q-c.lwps[a].QuantumLeft, cs+5)
		}

		c.undispatch(0)
		c.DispatchAll()
		owes("the same LWP placed again", 0)

		c.undispatch(0)
		c.removeKernelQ(a)
		b := lwp(thread(0))
		place(b)
		owes("another LWP placed", cs)

		c.undispatch(0)
		c.removeKernelQ(b)
		threadOf(c, b).LastCPU = 1
		place(b)
		owes("the last LWP placed, its thread migrating", mig)

		// Run-to-next-thread: b's thread blocks and b takes the next
		// queued thread, which last ran here, then one that migrates.
		c.account(&c.cpus[0]) // nothing elapsed: the overhead stays owed
		next := thread(0)
		c.pushUserRunQ(next)
		c.Block(0, c.lwps[b].thread)
		if c.lwps[b].thread != next {
			t.Fatalf("nextThread did not hand LWP %d the queued thread", b)
		}
		owes("a switch to the next thread", mig+cs)
		*c.now = c.now.Add(mig + cs)
		c.account(&c.cpus[0])
		c.pushUserRunQ(thread(1))
		c.Block(0, next)
		owes("a switch to a migrating next thread", cs+mig)
	}
}

// TestMergedPopMatchesOneQueue drives random sequences of burst and
// slice arms and re-arms, detaches, unlinks and engine pushes through the
// Core's merged pop — the event queue plus the CPU-timer heap — and
// requires exactly the delivery of one plain EventQueue that holds every
// timer ever armed and skips the stale ones (one whose CPU slot has been
// re-armed, or unlinked, since). A delivered timer stays listed until it
// is consumed the way handle consumes it: re-armed, or disarmed by
// unlink.
func TestMergedPopMatchesOneQueue(t *testing.T) {
	const seeds = 500
	var bursts, slices, ties int
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, _ := newFakeCore(t, "ts", 1+rng.Intn(6), false)
		lwps := make([]int32, len(c.cpus))
		for i := range lwps {
			lwps[i] = newLWP(c, 29)
			link(c, i, lwps[i])
		}
		// The reference queue keeps every armed timer, stamped with a
		// per-slot arm count, and skips the ones re-armed or unlinked
		// since.
		var ref vtime.EventQueue[Event]
		armed := make([]uint64, 2*len(lwps))
		arm := func(cpu int, k EventKind, at vtime.Time) {
			s := timerSlot(int32(cpu), k)
			armed[s]++
			ref.Push(at, Event{Kind: k, Who: int32(cpu), Epoch: armed[s]})
		}
		armSlice := func(i int) { // for a short quantum
			ln := &c.lwps[lwps[i]]
			ln.QuantumLeft = vtime.Duration(rng.Intn(4) * 10)
			if ln.QuantumLeft == 0 {
				ln.QuantumLeft = -1 // exhausted: refilled from the policy
			}
			c.armSlice(int32(i), ln)
			arm(i, EvSlice, c.now.Add(ln.QuantumLeft))
		}
		armBurst := func(i int) { // for a short work
			tn := threadOf(c, lwps[i])
			tn.WorkLeft = vtime.Duration(rng.Intn(4) * 10)
			c.armBurst(int32(i), tn)
			arm(i, EvBurst, c.now.Add(tn.WorkLeft))
		}
		unlink := func(i int) { // CPU i's LWP leaves and comes back
			c.unlink(int32(i))
			armed[timerSlot(int32(i), EvBurst)]++
			armed[timerSlot(int32(i), EvSlice)]++
			link(c, i, lwps[i])
		}
		var last vtime.Time
		// pop checks the next delivery and consumes a delivered timer; a
		// drain unlinks its CPU rather than re-arm it.
		pop := func(drain bool) bool {
			at, ev, ok := c.pop()
			var wantAt vtime.Time
			var want Event
			wantOK := false
			for ref.Len() > 0 {
				_, seq := ref.PeekKey()
				wantAt, want = ref.Pop()
				if want.Kind >= EvEngine {
					wantOK = true
					break
				}
				if want.Epoch == armed[timerSlot(want.Who, want.Kind)] {
					want.Epoch = seq // a delivered timer carries its seq
					wantOK = true
					break
				}
			}
			if ok != wantOK || (ok && (at != wantAt || ev != want)) {
				t.Fatalf("seed %d: Pop = (%v, %+v, %v), want (%v, %+v, %v)", seed, at, ev, ok, wantAt, want, wantOK)
			}
			if !ok {
				return false
			}
			if at == last {
				ties++
			}
			last = at
			*c.now = at
			switch i := int(ev.Who); {
			case ev.Kind >= EvEngine:
			case drain || rng.Intn(3) == 0:
				unlink(i)
			case ev.Kind == EvBurst:
				bursts++
				armBurst(i)
			default:
				slices++
				armSlice(i)
			}
			return true
		}
		for op := 0; op < 200; op++ {
			now := *c.now
			switch i := rng.Intn(len(lwps)); rng.Intn(7) {
			case 0:
				armSlice(i)
			case 1:
				armBurst(i)
			case 2:
				unlink(i)
			case 3: // CPU i's thread stops and its LWP runs the next one
				next := addThread(c, 29)
				c.threads[next].WorkLeft = vtime.Duration(rng.Intn(4) * 10)
				c.pushUserRunQ(next)
				c.detach(int32(i), c.lwps[lwps[i]].thread)
				arm(i, EvBurst, now.Add(c.threads[next].WorkLeft))
				arm(i, EvSlice, now.Add(c.lwps[lwps[i]].QuantumLeft))
			case 4: // CPU i's thread stops with no thread queued
				c.detach(int32(i), c.lwps[lwps[i]].thread)
				armed[timerSlot(int32(i), EvBurst)]++
				armed[timerSlot(int32(i), EvSlice)]++
				c.idleLWPs = c.idleLWPs[:0]
				c.pair(addThread(c, 29), lwps[i])
				link(c, i, lwps[i])
			case 5: // an engine event
				ev := Event{Kind: EvEngine, Who: int32(rng.Intn(8)), Epoch: uint64(op)}
				at := now.Add(vtime.Duration(rng.Intn(4) * 10))
				c.Push(at, ev)
				ref.Push(at, ev)
			case 6:
				pop(false)
			}
		}
		for pop(true) {
		}
	}
	if bursts == 0 || slices == 0 || ties == 0 {
		t.Fatalf("coverage: %d burst and %d slice deliveries re-armed, %d deliveries tied with the one before", bursts, slices, ties)
	}
}

// TestPeakAndContended pins what a run proves about its machine. Each
// placement raises PeakRunning to one more than its CPU's index, so a
// thread bound to a high CPU counts the CPUs below it. Contended turns on
// when a pass leaves an LWP in the kernel queue or a thread in the user
// run queue, when a CPU-bound LWP takes its CPU ahead of a queued rival,
// and on any eviction, even one whose LWP finds another CPU in the same
// pass.
func TestPeakAndContended(t *testing.T) {
	c, _ := newFakeCore(t, "ts", 4, true)
	pass := func() { c.DispatchAll(); c.PreemptPass() }
	c.pushKernelQ(newLWP(c, 29))
	c.pushKernelQ(newLWP(c, 29))
	pass()
	if c.PeakRunning() != 2 || c.Contended() {
		t.Fatalf("two LWPs on four CPUs: peak %d, contended %v; want 2, false", c.PeakRunning(), c.Contended())
	}
	pinned := newLWP(c, 29)
	threadOf(c, pinned).BoundCPU = 3
	c.pushKernelQ(pinned)
	pass()
	if c.PeakRunning() != 4 || c.Contended() {
		t.Fatalf("an LWP bound to CPU 3: peak %d, contended %v; want 4, false", c.PeakRunning(), c.Contended())
	}

	// A thread left waiting for an LWP.
	c2, _ := newFakeCore(t, "ts", 2, false)
	c2.pushUserRunQ(addThread(c2, 29))
	c2.DispatchAll()
	c2.PreemptPass()
	if !c2.Contended() {
		t.Fatal("a pass that leaves the user run queue non-empty must mark the run contended")
	}

	// An LWP left waiting for a CPU, with preemption off.
	c3, _ := newFakeCore(t, "fifo", 1, true)
	c3.pushKernelQ(newLWP(c3, 29))
	c3.pushKernelQ(newLWP(c3, 29))
	c3.DispatchAll()
	c3.PreemptPass()
	if !c3.Contended() || c3.PeakRunning() != 1 {
		t.Fatalf("two LWPs on one CPU: contended %v, peak %d; want true, 1", c3.Contended(), c3.PeakRunning())
	}

	// A CPU-bound LWP placed ahead of another that may run on its CPU
	// took the CPU by queue order; one whose rival may not run there did
	// not.
	for _, tc := range []struct {
		boundTo   int
		contended bool
	}{{0, true}, {1, false}} {
		c5, _ := newFakeCore(t, "ts", 2, true)
		bound, rival := newLWP(c5, 40), newLWP(c5, 29)
		threadOf(c5, bound).BoundCPU = tc.boundTo
		c5.pushKernelQ(bound)
		c5.pushKernelQ(rival)
		c5.DispatchAll()
		c5.PreemptPass()
		if c5.Contended() != tc.contended || len(c5.kernelQ) != 0 {
			t.Fatalf("LWP bound to CPU %d queued with a rival: contended %v with %d queued; want %v with none queued",
				tc.boundTo, c5.Contended(), len(c5.kernelQ), tc.contended)
		}
	}

	// An eviction counts though the pass places the LWP again at once.
	c4, _ := newFakeCore(t, "ts", 2, false)
	c4.pushKernelQ(newLWP(c4, 29))
	c4.DispatchAll()
	c4.PreemptPass()
	c4.undispatch(0)
	c4.DispatchAll()
	c4.PreemptPass()
	if !c4.Contended() || len(c4.kernelQ) != 0 {
		t.Fatalf("eviction: contended %v with %d queued; want true with none queued", c4.Contended(), len(c4.kernelQ))
	}
}
