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
	if e, _ := listed(c, 0, EvBurst); e != burst || c.timers.Len() != 2 {
		t.Fatalf("slice event: burst %+v and %d timers listed, want the burst %+v untouched and the slice", e, c.timers.Len(), burst)
	}

	// unlink drops both timers armed above: relinked to the CPU, the LWP
	// has no event left to receive.
	c.unlink(0)
	if c.timers.Len() != 0 {
		t.Fatal("unlink left a timer listed")
	}
	link(c, 0, l)
	if at, ev, _, ok := c.pop(); ok {
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
		if at, ev, _, _ := c.pop(); ev.Kind != EvBurst || at != vtime.Time(cs+50) {
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
// slice arms and re-arms, detaches, unlinks, and engine slot arms,
// re-arms and disarms through the Core's one timer heap and pop, and
// requires exactly the delivery of a linear-scan reference that keeps
// only each slot's latest arm, keyed by its time and a seq counted one
// per arm. A delivered engine event leaves its slot disarmed; a
// delivered CPU timer stays listed until it is consumed the way handle
// consumes it: re-armed, or disarmed by unlink.
func TestMergedPopMatchesOneQueue(t *testing.T) {
	const seeds = 500
	const engineSlots = 8
	var bursts, slices, rekeys, ties int
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, _ := newFakeCore(t, "ts", 1+rng.Intn(6), false)
		lwps := make([]int32, len(c.cpus))
		for i := range lwps {
			lwps[i] = newLWP(c, 29)
			link(c, i, lwps[i])
		}
		engine := make([]int32, engineSlots)
		for i := range engine {
			engine[i] = c.AddTimer(Event{Kind: EvEngine + EventKind(i%2), Who: int32(i)})
		}
		// The reference: each slot's latest arm, and whether it is listed.
		type refTimer struct {
			at     vtime.Time
			seq    uint64
			listed bool
		}
		ref := make([]refTimer, len(c.slots))
		var seq uint64
		arm := func(slot int32, at vtime.Time) {
			ref[slot] = refTimer{at, seq, true}
			seq++
		}
		cpuArm := func(cpu int, k EventKind, at vtime.Time) { arm(timerSlot(int32(cpu), k), at) }
		cpuDisarm := func(cpu int) {
			ref[timerSlot(int32(cpu), EvBurst)].listed = false
			ref[timerSlot(int32(cpu), EvSlice)].listed = false
		}
		armSlice := func(i int) { // for a short quantum
			ln := &c.lwps[lwps[i]]
			ln.QuantumLeft = vtime.Duration(rng.Intn(4) * 10)
			if ln.QuantumLeft == 0 {
				ln.QuantumLeft = -1 // exhausted: refilled from the policy
			}
			c.armSlice(int32(i), ln)
			cpuArm(i, EvSlice, c.now.Add(ln.QuantumLeft))
		}
		armBurst := func(i int) { // for a short work
			tn := threadOf(c, lwps[i])
			tn.WorkLeft = vtime.Duration(rng.Intn(4) * 10)
			c.armBurst(int32(i), tn)
			cpuArm(i, EvBurst, c.now.Add(tn.WorkLeft))
		}
		unlink := func(i int) { // CPU i's LWP leaves and comes back
			c.unlink(int32(i))
			cpuDisarm(i)
			link(c, i, lwps[i])
		}
		var last vtime.Time
		// pop checks the next delivery and consumes a delivered CPU timer;
		// a drain unlinks its CPU rather than re-arm it.
		pop := func(drain bool) bool {
			at, ev, gotSeq, ok := c.pop()
			want, wantOK := int32(-1), false
			for slot, r := range ref {
				if r.listed && (!wantOK || r.at < ref[want].at || (r.at == ref[want].at && r.seq < ref[want].seq)) {
					want, wantOK = int32(slot), true
				}
			}
			if ok != wantOK || (ok && (at != ref[want].at || gotSeq != ref[want].seq || ev != c.slots[want])) {
				t.Fatalf("seed %d: pop = (%v, %+v, seq %d, %v), want slot %d %+v", seed, at, ev, gotSeq, ok, want, ref[max(want, 0)])
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
				ref[want].listed = false
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
			switch i := rng.Intn(len(lwps)); rng.Intn(8) {
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
				cpuArm(i, EvBurst, now.Add(c.threads[next].WorkLeft))
				cpuArm(i, EvSlice, now.Add(c.lwps[lwps[i]].QuantumLeft))
			case 4: // CPU i's thread stops with no thread queued
				c.detach(int32(i), c.lwps[lwps[i]].thread)
				cpuDisarm(i)
				c.idleLWPs = c.idleLWPs[:0]
				c.pair(addThread(c, 29), lwps[i])
				link(c, i, lwps[i])
			case 5: // an engine slot armed, or re-keyed in place
				slot := engine[rng.Intn(engineSlots)]
				if ref[slot].listed {
					rekeys++
				}
				at := now.Add(vtime.Duration(rng.Intn(4) * 10))
				c.Arm(slot, at)
				arm(slot, at)
			case 6: // an engine slot disarmed
				slot := engine[rng.Intn(engineSlots)]
				c.Disarm(slot)
				ref[slot].listed = false
			case 7:
				pop(false)
			}
			if err := c.timers.Check(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		for pop(true) {
		}
	}
	if bursts == 0 || slices == 0 || rekeys == 0 || ties == 0 {
		t.Fatalf("coverage: %d burst and %d slice deliveries re-armed, %d engine slots re-keyed, %d deliveries tied with the one before",
			bursts, slices, rekeys, ties)
	}
}

// TestPeakAndContended pins what a run proves about its machine. Each
// placement raises PeakRunning to one more than its CPU's index, so a
// thread bound to a high CPU counts the CPUs below it. Contended turns on
// when a pass leaves an LWP in the kernel queue or a thread in the user
// run queue, and when a CPU-bound LWP takes its CPU ahead of a queued
// rival.
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

}
