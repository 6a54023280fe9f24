package vtime

import "fmt"

// Timers is a deterministic indexed priority queue of timers. Each timer
// owns a slot (Add), which is either disarmed or listed once at a key
// (at, seq); arming a listed slot re-keys it in place, so a queue of
// slots never holds a stale entry. seq is the queue's own arm counter:
// timers due at the same instant are delivered in the order they were
// armed, which is what makes whole simulations reproducible — the
// tie-break is an explicit sequence number rather than heap internals.
//
// The heap is binary with a pos array from slot to heap index. Slots are
// added, never removed, and the heap grows to the most slots listed at
// once; from then on, arming and disarming never allocate. The zero value
// is ready to use.
type Timers struct {
	heap []timer
	pos  []int32 // by slot: heap index plus one, 0 while disarmed
	seq  uint64
}

// timer is one listed slot.
type timer struct {
	at   Time
	seq  uint64
	slot int32
}

// Add creates a disarmed slot and returns it; slots are numbered from 0
// in creation order.
func (h *Timers) Add() int32 {
	h.pos = append(h.pos, 0)
	return int32(len(h.pos) - 1)
}

// Len reports the number of listed slots.
func (h *Timers) Len() int { return len(h.heap) }

// Arm lists slot for delivery at at, in place of its listed key if it has
// one. It consumes one seq.
func (h *Timers) Arm(slot int32, at Time) {
	i := int(h.pos[slot]) - 1
	if i < 0 {
		i = len(h.heap)
		h.heap = append(h.heap, timer{})
	}
	h.fix(i, timer{at: at, seq: h.seq, slot: slot})
	h.seq++
}

// Disarm unlists slot, if it is listed.
func (h *Timers) Disarm(slot int32) {
	if i := int(h.pos[slot]) - 1; i >= 0 {
		h.pos[slot] = 0
		last := h.heap[len(h.heap)-1]
		if h.heap = h.heap[:len(h.heap)-1]; i < len(h.heap) {
			h.fix(i, last)
		}
	}
}

// Peek returns the earliest listed slot with its key, leaving it listed;
// ok is false when no slot is listed.
func (h *Timers) Peek() (slot int32, at Time, seq uint64, ok bool) {
	if len(h.heap) == 0 {
		return 0, 0, 0, false
	}
	e := &h.heap[0]
	return e.slot, e.at, e.seq, true
}

// Key returns slot's key; ok is false while the slot is disarmed.
func (h *Timers) Key(slot int32) (at Time, seq uint64, ok bool) {
	if i := h.pos[slot] - 1; i >= 0 {
		return h.heap[i].at, h.heap[i].seq, true
	}
	return 0, 0, false
}

// Check verifies that every listed slot and its heap entry point at each
// other, and returns the first violation.
func (h *Timers) Check() error {
	listed := 0
	for slot, p := range h.pos {
		if p == 0 {
			continue
		}
		if listed++; int(p) > len(h.heap) || h.heap[p-1].slot != int32(slot) {
			return fmt.Errorf("timer slot %d lists heap index %d, which holds another slot", slot, p-1)
		}
	}
	if listed != len(h.heap) {
		return fmt.Errorf("%d timer slots armed, %d timers in the heap", listed, len(h.heap))
	}
	return nil
}

// before orders two timers by (at, seq).
func (e *timer) before(o *timer) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// fix places e at heap index i and sifts it up or down to where its key
// belongs, keeping pos in step.
func (h *Timers) fix(i int, e timer) {
	for p := (i - 1) / 2; i > 0 && e.before(&h.heap[p]); p = (i - 1) / 2 {
		h.set(i, h.heap[p])
		i = p
	}
	n := len(h.heap)
	for c := 2*i + 1; c < n; c = 2*i + 1 {
		if c+1 < n && h.heap[c+1].before(&h.heap[c]) {
			c++
		}
		if !h.heap[c].before(&e) {
			break
		}
		h.set(i, h.heap[c])
		i = c
	}
	h.set(i, e)
}

func (h *Timers) set(i int, e timer) { h.heap[i], h.pos[e.slot] = e, int32(i)+1 }
