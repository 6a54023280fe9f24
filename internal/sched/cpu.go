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
// the engine's own. Epoch is the subject's epoch when the event was
// armed; an event whose epoch lags is stale and dropped. A slice event
// carries none, as its timer leaves the ring the moment it goes stale.
// Keeping pointers out of the queue means the collector never scans it
// and a push emits no write barriers.
type Event struct {
	Kind  EventKind
	Who   int32
	Epoch uint64
}

// Push queues an engine event for delivery at time at.
func (c *Core) Push(at vtime.Time, ev Event) { c.events.Push(at, ev) }

// pop removes and returns the next event: the earlier of the queue's head
// and the earliest slice timer, comparing full (time, insertion order)
// keys, so the order is exactly the one a single queue holding both would
// deliver. ok is false when neither holds an event.
func (c *Core) pop() (at vtime.Time, ev Event, ok bool) {
	if r := &c.slices; r.n > 0 && (c.events.Len() == 0 || r.peek().before(c.events.PeekKey())) {
		e := r.pop()
		return e.at, Event{Kind: EvSlice, Who: e.cpu}, true
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
// work of its thread tn, invalidating the one armed before.
func (c *Core) armBurst(cpu int32, tn *ThreadNode) {
	cn := &c.cpus[cpu]
	cn.Epoch++
	c.events.Push(c.now.Add(cn.overhead+tn.WorkLeft), Event{Kind: EvBurst, Who: cpu, Epoch: cn.Epoch})
}

// armSlice arms the slice timer of ln, the LWP running on cpu, for what is
// left of its quantum, refilling an exhausted one from the policy, and
// drops the timer armed before. A policy without time slicing arms none:
// the LWP runs to block.
func (c *Core) armSlice(cpu int32, ln *LWPNode) {
	c.slices.remove(cpu)
	if ln.QuantumLeft <= 0 {
		ln.QuantumLeft = c.policy.Quantum(ln.Prio)
	}
	if ln.QuantumLeft <= 0 {
		return
	}
	c.slices.insert(sliceEnt{at: c.now.Add(ln.QuantumLeft), seq: c.events.ReserveSeq(), cpu: cpu})
}

// ---- slice ring -----------------------------------------------------------

// sliceEnt is one armed slice timer. Slice expirations are the dominant
// event traffic of compute-heavy runs (a burst that spans many quanta
// re-arms its slice on every expiry), and each CPU has at most one live
// slice timer, so they bypass the event queue. seq is reserved from the
// queue's insertion counter at arm time, which keeps the merged delivery
// order exactly that of pushing the timer through the queue: ties at the
// same instant still resolve by insertion order. A timer leaves the ring
// when it is re-armed or its LWP leaves the CPU, so every listed entry is
// live and pop needs no revalidation.
type sliceEnt struct {
	at  vtime.Time
	seq uint64
	cpu int32
}

// before orders the entry against the queue head's (time, seq) key.
func (e *sliceEnt) before(at vtime.Time, seq uint64) bool {
	return e.at < at || (e.at == at && e.seq < seq)
}

// sliceRing keeps the armed timers in a ring sorted ascending by
// (at, seq): the earliest is at head, so peek and pop are O(1). A fresh
// arm usually carries the latest deadline of all (it starts now with a
// full quantum while the others have been burning theirs down), so the
// common insert is an O(1) append at the tail; out-of-order arms shift
// only their displacement. It holds at most one entry per CPU, so it
// never grows.
type sliceRing struct {
	buf   []sliceEnt // capacity is a power of two, at least the CPU count
	head  int
	n     int
	armed []bool // by CPU: the CPU has a listed entry
}

func newSliceRing(cpus int) sliceRing {
	size := 1
	for size < cpus {
		size *= 2
	}
	return sliceRing{buf: make([]sliceEnt, size), armed: make([]bool, cpus)}
}

func (r *sliceRing) peek() *sliceEnt { return &r.buf[r.head] }

func (r *sliceRing) pop() sliceEnt {
	e := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	r.armed[e.cpu] = false
	return e
}

func (r *sliceRing) insert(e sliceEnt) {
	mask := len(r.buf) - 1
	i := r.n
	for i > 0 {
		prev := &r.buf[(r.head+i-1)&mask]
		if !e.before(prev.at, prev.seq) {
			break
		}
		r.buf[(r.head+i)&mask] = *prev
		i--
	}
	r.buf[(r.head+i)&mask] = e
	r.n++
	r.armed[e.cpu] = true
}

// remove drops the CPU's listed entry, if it has one.
func (r *sliceRing) remove(cpu int32) {
	if !r.armed[cpu] {
		return
	}
	r.armed[cpu] = false
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head+i)&mask].cpu == cpu {
			for j := i; j < r.n-1; j++ {
				r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
			}
			r.n--
			return
		}
	}
}
