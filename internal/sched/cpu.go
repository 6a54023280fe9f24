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

// Event is what a timer slot delivers: its kind and Who, the dense index
// of its subject, a CPU for the Core's kinds and an engine's thread or
// object for the engine's own. It is pointer-free, so the slot table the
// Core keeps of them is never scanned by the collector.
type Event struct {
	Kind EventKind
	Who  int32
}

// AddTimer registers a timer slot that delivers the engine's event ev
// and returns it, disarmed. An engine registers one slot per pending
// event it can have, when it registers the event's subject (a thread or
// an object), never per event.
func (c *Core) AddTimer(ev Event) int32 {
	c.slots = append(c.slots, ev)
	return c.timers.Add()
}

// Arm lists timer slot for delivery at time at, in place of its listed
// timer if it has one, so a timer that has gone stale is never delivered.
func (c *Core) Arm(slot int32, at vtime.Time) { c.timers.Arm(slot, at) }

// Disarm unlists timer slot, if it is listed.
func (c *Core) Disarm(slot int32) { c.timers.Disarm(slot) }

// pop returns the next event with its time and seq (its key in the
// timer heap); ok is false when no timer is listed. An engine's event is
// unlisted before it is delivered; a CPU timer stays listed until handle
// re-arms or disarms it.
func (c *Core) pop() (at vtime.Time, ev Event, seq uint64, ok bool) {
	slot, at, seq, ok := c.timers.Peek()
	if !ok {
		return 0, Event{}, 0, false
	}
	if ev = c.slots[slot]; ev.Kind >= EvEngine {
		c.timers.Disarm(slot)
	}
	return at, ev, seq, true
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
	c.timers.Arm(timerSlot(cpu, EvBurst), at)
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
		c.timers.Disarm(timerSlot(cpu, EvSlice))
		return
	}
	c.timers.Arm(timerSlot(cpu, EvSlice), c.now.Add(ln.QuantumLeft))
}

// timerSlot is the slot of the CPU's timer of kind k (EvBurst or EvSlice):
// NewCore registers each CPU's two slots first, in CPU order.
func timerSlot(cpu int32, k EventKind) int32 { return 2*cpu + int32(k) }
