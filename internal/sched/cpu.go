package sched

import "vppb/internal/vtime"

// This file is the CPU half of the Core, shared by both engines: starting
// a thread on a CPU with its dispatch overheads, charging elapsed time,
// and the two timers every running CPU has — the burst, which ends when
// its thread's CPU work (after the overhead) is done, and the slice,
// which ends its LWP's quantum. Run (loop.go) takes every event from pop.

// EventKind says what an Event is about. The Core owns EvBurst and
// EvSlice; each engine numbers its own kinds from EvEngine on.
type EventKind uint8

const (
	// EvBurst: the burst of the CPU Who ends.
	EvBurst EventKind = iota
	// EvSlice: the quantum of the LWP running on CPU Who ends.
	EvSlice
	// EvEngine is the first kind an engine may define (its timers, wakes
	// and I/O completions).
	EvEngine
)

// Event is a pointer-free queue entry. Who is the dense index of its
// subject: a CPU for the Core's kinds, an engine's thread or object for
// the engine's own. For an engine's event, Epoch is the subject's epoch
// when the event was queued, so the engine can drop one that has gone
// stale; for a CPU timer's, it is the timer's seq (see pop). Keeping
// pointers out of the queue means the collector never scans it and a
// push emits no write barriers.
type Event struct {
	Kind  EventKind
	Who   int32
	Epoch uint64
}

// Push queues an engine event for delivery at time at.
func (c *Core) Push(at vtime.Time, ev Event) { c.events.Push(at, ev) }

// pop returns the next event: the earlier of the queue's head, which it
// removes, and the earliest CPU timer, comparing full (time, insertion
// order) keys, so the order is exactly the one a single queue holding
// both would deliver. ok is false when neither holds an event. A
// delivered CPU timer stays listed until handle re-arms or disarms it.
func (c *Core) pop() (at vtime.Time, ev Event, ok bool) {
	if h := &c.timers; len(h.heap) > 0 && (c.events.Len() == 0 || h.heap[0].before(c.events.PeekKey())) {
		e := h.heap[0]
		return e.at, Event{Kind: EventKind(e.slot & 1), Who: e.slot >> 1, Epoch: e.seq}, true
	}
	if c.events.Len() == 0 {
		return 0, Event{}, false
	}
	at, ev = c.events.Pop()
	return at, ev, true
}

// run starts the thread that the LWP linked to cpu carries and marks it
// running. It charges the dispatch overheads, lets the engine finish a
// call that completed while the thread was off-CPU, and arms the CPU's
// burst and slice timers. placed is true when cpu was idle (DispatchAll)
// and false when its LWP moves on to its next thread (nextThread).
func (c *Core) run(cpu int32, placed bool) {
	cn := &c.cpus[cpu]
	l := cn.lwp
	ti := c.lwps[l].thread
	tn := c.threads[ti]
	tn.To(Running, *c.now, cpu, l)
	if placed {
		cn.accounted = *c.now
		cn.overhead = 0
		if cn.lastLWP != l {
			cn.overhead = c.costs.ContextSwitch
		}
		cn.lastLWP = l
	} else {
		cn.overhead += c.costs.ContextSwitch
	}
	if tn.LastCPU >= 0 && tn.LastCPU != int(cpu) {
		cn.overhead += c.costs.Migration
	}
	tn.LastCPU = int(cpu)
	if tn.Stage == StageWaiting {
		c.engine.Complete(cpu, ti)
		if cn.lwp != l || c.lwps[l].thread != ti {
			return
		}
	}
	c.armBurst(cpu, tn)
	c.armSlice(cpu, &c.lwps[l])
}

// account charges the time since the CPU with node cn was last accounted:
// all of it to the running LWP's quantum, and to the dispatch overhead the
// CPU owes first and the thread's work after, which becomes its CPU time.
// It is the one place either engine charges elapsed CPU time.
func (c *Core) account(cn *CPUNode) {
	dt := c.now.Sub(cn.accounted)
	cn.accounted = *c.now
	if cn.lwp == nilIdx || dt <= 0 {
		return
	}
	ln := &c.lwps[cn.lwp]
	ln.QuantumLeft -= dt
	if cn.overhead > 0 {
		if dt <= cn.overhead {
			cn.overhead -= dt
			return
		}
		dt -= cn.overhead
		cn.overhead = 0
	}
	tn := c.threads[ln.thread]
	dt = min(dt, tn.WorkLeft)
	tn.WorkLeft -= dt
	tn.CPUTime += dt
}

// armBurst arms the CPU's burst timer for the overhead it owes and the
// work of its thread tn, in place of the one armed before.
func (c *Core) armBurst(cpu int32, tn *ThreadNode) {
	at := c.now.Add(c.cpus[cpu].overhead + tn.WorkLeft)
	c.timers.arm(timerSlot(cpu, EvBurst), at, c.events.ReserveSeq())
}

// armSlice arms the slice timer of ln, the LWP running on cpu, for what is
// left of its quantum, refilling an exhausted one from the policy, in
// place of the timer armed before. A policy without time slicing arms
// none: the LWP runs to block.
func (c *Core) armSlice(cpu int32, ln *LWPNode) {
	if ln.QuantumLeft <= 0 {
		ln.QuantumLeft = c.policy.Quantum(ln.Prio)
	}
	if ln.QuantumLeft <= 0 {
		c.timers.disarm(timerSlot(cpu, EvSlice))
		return
	}
	c.timers.arm(timerSlot(cpu, EvSlice), c.now.Add(ln.QuantumLeft), c.events.ReserveSeq())
}

// ---- CPU timers -----------------------------------------------------------

// cpuTimers holds every armed CPU timer in one indexed binary min-heap
// ordered by (at, seq). Each CPU owns two slots, its burst and its slice
// (timerSlot), and pos maps a slot to its heap index plus one, 0 while
// it is disarmed. Arming a listed slot re-keys it in place and unlink
// disarms both of a CPU's slots, so every listed timer is live and pop
// needs no revalidation; the heap holds at most two timers per CPU, so
// it never grows. seq is reserved from the event queue's insertion
// counter at arm time, which keeps the merged delivery order exactly
// that of pushing the timer through the queue: ties at the same instant
// still resolve by insertion order.
type cpuTimers struct {
	heap []timer
	pos  []int32 // by slot
}

// timer is one armed CPU timer.
type timer struct {
	at   vtime.Time
	seq  uint64
	slot int32
}

// timerSlot is the slot of the CPU's timer of kind k (EvBurst or EvSlice),
// so a slot names the event it delivers.
func timerSlot(cpu int32, k EventKind) int32 { return 2*cpu + int32(k) }

// before orders the timer against a (time, seq) key.
func (e *timer) before(at vtime.Time, seq uint64) bool {
	return e.at < at || (e.at == at && e.seq < seq)
}

// arm lists slot at (at, seq), in place of its listed timer if it has one.
func (h *cpuTimers) arm(slot int32, at vtime.Time, seq uint64) {
	i := int(h.pos[slot]) - 1
	if i < 0 {
		i = len(h.heap)
		h.heap = append(h.heap, timer{})
	}
	h.fix(i, timer{at: at, seq: seq, slot: slot})
}

// disarm unlists slot, if it is listed.
func (h *cpuTimers) disarm(slot int32) {
	if i := int(h.pos[slot]) - 1; i >= 0 {
		h.pos[slot] = 0
		last := h.heap[len(h.heap)-1]
		if h.heap = h.heap[:len(h.heap)-1]; i < len(h.heap) {
			h.fix(i, last)
		}
	}
}

// fix places e at heap index i and sifts it up or down to where its key
// belongs, keeping pos in step.
func (h *cpuTimers) fix(i int, e timer) {
	for p := (i - 1) / 2; i > 0 && e.before(h.heap[p].at, h.heap[p].seq); p = (i - 1) / 2 {
		h.set(i, h.heap[p])
		i = p
	}
	n := len(h.heap)
	for c := 2*i + 1; c < n; c = 2*i + 1 {
		if c+1 < n && h.heap[c+1].before(h.heap[c].at, h.heap[c].seq) {
			c++
		}
		if !h.heap[c].before(e.at, e.seq) {
			break
		}
		h.set(i, h.heap[c])
		i = c
	}
	h.set(i, e)
}

func (h *cpuTimers) set(i int, e timer) { h.heap[i], h.pos[e.slot] = e, int32(i)+1 }
