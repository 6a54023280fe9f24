package vtime

// EventQueue is a deterministic priority queue of timestamped items.
// Items that share a timestamp are delivered in insertion order, which is
// what makes whole simulations reproducible: the tie-break is an explicit
// sequence number rather than heap internals.
//
// The zero value is ready to use.
type EventQueue[T any] struct {
	heap []entry[T]
	seq  uint64
}

type entry[T any] struct {
	at   Time
	seq  uint64
	item T
}

// Len reports the number of queued items.
func (q *EventQueue[T]) Len() int { return len(q.heap) }

// Reserve grows the queue's backing storage to hold at least n items
// without reallocating, so a simulation whose peak queue size is known up
// front never pays for heap growth mid-run.
func (q *EventQueue[T]) Reserve(n int) {
	if cap(q.heap) >= n {
		return
	}
	heap := make([]entry[T], len(q.heap), n)
	copy(heap, q.heap)
	q.heap = heap
}

// Push queues item for delivery at time at.
func (q *EventQueue[T]) Push(at Time, item T) {
	q.heap = append(q.heap, entry[T]{at: at, seq: q.seq, item: item})
	q.seq++
	q.up(len(q.heap) - 1)
}

// PeekKey returns the full ordering key — timestamp and insertion
// sequence — of the earliest item. It panics if the queue is empty; check
// Len first. Callers merging the queue with an external timer source
// compare keys to deliver in exactly the order one combined queue would.
func (q *EventQueue[T]) PeekKey() (Time, uint64) {
	return q.heap[0].at, q.heap[0].seq
}

// ReserveSeq consumes and returns the next insertion sequence number
// without queuing anything. An external timer stamped with a reserved
// sequence number ties with queued items exactly as if it had been pushed
// here at reservation time — the pattern the scheduler uses to keep its
// CPU timers out of the heap without perturbing delivery order.
func (q *EventQueue[T]) ReserveSeq() uint64 {
	s := q.seq
	q.seq++
	return s
}

// Pop removes and returns the earliest item and its timestamp. It panics if
// the queue is empty; check Len first.
func (q *EventQueue[T]) Pop() (Time, T) {
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return top.at, top.item
}

// The heap is 4-ary with hole-based sifting: half the levels of a binary
// heap (fewer data-dependent branches per Pop) and one entry move per
// level instead of a swap. Delivery order is unaffected by the heap
// shape — the (at, seq) comparator is a total order with a unique seq per
// entry, so the minimum is unique and arity cannot change which entry any
// Pop returns.
const heapArity = 4

func lessEntry[T any](a, b *entry[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *EventQueue[T]) up(i int) {
	e := q.heap[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !lessEntry(&e, &q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = e
}

func (q *EventQueue[T]) down(i int) {
	n := len(q.heap)
	e := q.heap[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		least := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if lessEntry(&q.heap[c], &q.heap[least]) {
				least = c
			}
		}
		if !lessEntry(&q.heap[least], &e) {
			break
		}
		q.heap[i] = q.heap[least]
		i = least
	}
	q.heap[i] = e
}
