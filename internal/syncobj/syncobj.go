// Package syncobj is the one synchronization-object core of both engines:
// the execution-driven recording kernel (internal/threadlib) and the
// trace-driven Simulator (internal/core). The paper's prediction holds
// because the Simulator replays every call with the semantics the
// monitored run had; here those semantics exist once. The Core owns the
// state and grant rule of every object — mutex handoff to the first
// waiter, the semaphore count, condition waits that re-acquire their
// mutex, readers/writer locks with writer preference, FIFO devices — and
// the join and zombie queues.
//
// Threads and objects are dense int32 indices chosen by the engine, and
// every wait queue is an intrusive FIFO linked through the Core's thread
// table, so queueing never allocates. Blocking and waking stay engine code:
// an operation that cannot complete returns false and the engine blocks
// the caller; a grant reaches the engine through its Engine hooks.
package syncobj

import (
	"slices"

	"vppb/internal/trace"
)

// Nil is the null thread or object index.
const Nil = int32(-1)

// Engine receives the Core's grants.
type Engine interface {
	// Wake makes thread ti runnable: the call it blocked in completed.
	// by is the thread whose call granted it, or Nil when none did (a
	// device, or a mutex re-acquired at the end of a condition wait).
	Wake(ti, by int32)
	// Joined reports that thread ti's thr_join reaped thread z. For a
	// blocked joiner it precedes the Wake.
	Joined(ti, z int32)
	// StartIO begins device oi's service of thread ti's request; the
	// engine calls Core.IODone when the service time has elapsed.
	StartIO(oi, ti int32)
}

// queue is an intrusive FIFO of threads linked by thread.next. A thread
// is in at most one queue at a time (it waits on exactly one thing), so
// one link per thread suffices.
type queue struct{ head, tail int32 }

var emptyQ = queue{head: Nil, tail: Nil}

type thread struct {
	next int32 // link in the queue the thread is on
	// on is the object the thread is blocked on, for diagnostics.
	on int32
	// mutex is the companion mutex of the thread's condition wait.
	mutex  int32
	joinQ  queue // threads joining this one
	exited bool
}

// object is the state of one synchronization object. One struct serves
// every kind; each kind uses its own fields, so a log that misuses an
// object replays without one kind's waiters leaking into another's queue.
type object struct {
	owner  int32 // mutex holder
	mutexQ queue

	count int // semaphore
	semaQ queue

	condQ   queue
	condLen int

	// readers holds the read holders in acquisition order; a dense-index
	// slice keeps membership tests and diagnostics deterministic.
	readers []int32
	writer  int32
	rdQ     queue
	wrQ     queue

	ioCur int32 // device: the request in service
	ioQ   queue
}

// Core is the object table of one run.
type Core struct {
	eng     Engine
	threads []thread
	objs    []object
	zombies queue // exited, unreaped threads, in exit order
	anyJoin queue // wildcard joiners, in arrival order
}

// New builds an empty Core; threads and objects size its tables.
func New(eng Engine, threads, objects int) *Core {
	return &Core{
		eng:     eng,
		threads: make([]thread, 0, threads),
		objs:    make([]object, 0, objects),
		zombies: emptyQ,
		anyJoin: emptyQ,
	}
}

// AddThread registers the next thread and returns its index.
func (c *Core) AddThread() int32 {
	c.threads = append(c.threads, thread{next: Nil, on: Nil, mutex: Nil, joinQ: emptyQ})
	return int32(len(c.threads) - 1)
}

// AddObject registers the next object, with a semaphore's initial count,
// and returns its index.
func (c *Core) AddObject(kind trace.ObjectKind, count int) int32 {
	o := object{owner: Nil, mutexQ: emptyQ, count: count, semaQ: emptyQ, condQ: emptyQ,
		writer: Nil, rdQ: emptyQ, wrQ: emptyQ, ioCur: Nil, ioQ: emptyQ}
	if kind == trace.ObjRWLock {
		o.readers = make([]int32, 0, 4)
	}
	c.objs = append(c.objs, o)
	return int32(len(c.objs) - 1)
}

// ---- queues and waking -------------------------------------------------------

// enqueue appends thread ti to q, recording oi as what it waits on.
func (c *Core) enqueue(q *queue, ti, oi int32) {
	t := &c.threads[ti]
	t.next = Nil
	t.on = oi
	if q.tail == Nil {
		q.head = ti
	} else {
		c.threads[q.tail].next = ti
	}
	q.tail = ti
}

func (c *Core) pop(q *queue) int32 {
	ti := q.head
	if ti == Nil {
		return Nil
	}
	t := &c.threads[ti]
	q.head = t.next
	if q.head == Nil {
		q.tail = Nil
	}
	t.next = Nil
	return ti
}

// remove unlinks thread ti from q; false if it is not queued there.
func (c *Core) remove(q *queue, ti int32) bool {
	for prev, cur := Nil, q.head; cur != Nil; prev, cur = cur, c.threads[cur].next {
		if cur != ti {
			continue
		}
		next := c.threads[cur].next
		if prev == Nil {
			q.head = next
		} else {
			c.threads[prev].next = next
		}
		if q.tail == cur {
			q.tail = prev
		}
		c.threads[cur].next = Nil
		return true
	}
	return false
}

func (c *Core) wake(ti, by int32) {
	c.threads[ti].on = Nil
	c.eng.Wake(ti, by)
}

// WaitingOn is the object thread ti is blocked on, or Nil.
func (c *Core) WaitingOn(ti int32) int32 { return c.threads[ti].on }

// WaitOn records that thread ti blocks on object oi outside any queue (an
// engine-specific wait, such as a replayed timeout).
func (c *Core) WaitOn(ti, oi int32) { c.threads[ti].on = oi }

// AppendHolders appends the threads holding object oi — mutex owner,
// rwlock writer and readers — to dst.
func (c *Core) AppendHolders(dst []int32, oi int32) []int32 {
	o := &c.objs[oi]
	if o.owner != Nil {
		dst = append(dst, o.owner)
	}
	if o.writer != Nil {
		dst = append(dst, o.writer)
	}
	return append(dst, o.readers...)
}

// ---- mutex -------------------------------------------------------------------

// Owner is mutex oi's holder, or Nil.
func (c *Core) Owner(oi int32) int32 { return c.objs[oi].owner }

// MutexTryLock takes mutex oi for thread ti if it is free.
func (c *Core) MutexTryLock(oi, ti int32) bool {
	o := &c.objs[oi]
	if o.owner != Nil {
		return false
	}
	o.owner = ti
	return true
}

// MutexLock takes mutex oi for thread ti, or queues ti and returns false.
func (c *Core) MutexLock(oi, ti int32) bool {
	if c.MutexTryLock(oi, ti) {
		return true
	}
	c.enqueue(&c.objs[oi].mutexQ, ti, oi)
	return false
}

// MutexUnlock releases mutex oi, held by thread by, handing it to the
// first waiter.
func (c *Core) MutexUnlock(oi, by int32) {
	o := &c.objs[oi]
	o.owner = c.pop(&o.mutexQ)
	if o.owner != Nil {
		c.wake(o.owner, by)
	}
}

// DropMutex releases mutex m (Nil for none) if thread ti holds it, as a
// thread does when it starts waiting on a condition.
func (c *Core) DropMutex(m, ti int32) {
	if m != Nil && c.objs[m].owner == ti {
		c.MutexUnlock(m, ti)
	}
}

// ---- semaphore ----------------------------------------------------------------

// SemaTryWait decrements semaphore oi if its count is positive.
func (c *Core) SemaTryWait(oi int32) bool {
	o := &c.objs[oi]
	if o.count <= 0 {
		return false
	}
	o.count--
	return true
}

// SemaWait decrements semaphore oi, or queues thread ti and returns false.
func (c *Core) SemaWait(oi, ti int32) bool {
	if c.SemaTryWait(oi) {
		return true
	}
	c.enqueue(&c.objs[oi].semaQ, ti, oi)
	return false
}

// SemaPost hands semaphore oi to its first waiter, or increments it.
func (c *Core) SemaPost(oi, by int32) {
	o := &c.objs[oi]
	if wi := c.pop(&o.semaQ); wi != Nil {
		c.wake(wi, by)
		return
	}
	o.count++
}

// ---- condition variable ---------------------------------------------------------

// CondWait releases mutex m (Nil for none) if thread ti holds it and
// queues ti on condition cv; a signal re-acquires m before the wake.
func (c *Core) CondWait(cv, m, ti int32) {
	c.DropMutex(m, ti)
	c.threads[ti].mutex = m
	o := &c.objs[cv]
	c.enqueue(&o.condQ, ti, cv)
	o.condLen++
}

// CondLen is the number of threads waiting on condition cv.
func (c *Core) CondLen(cv int32) int { return c.objs[cv].condLen }

// CondSignal releases up to n waiters of condition cv, oldest first; each
// re-acquires its mutex before it wakes.
func (c *Core) CondSignal(cv int32, n int) {
	o := &c.objs[cv]
	for ; n > 0; n-- {
		wi := c.pop(&o.condQ)
		if wi == Nil {
			return
		}
		o.condLen--
		c.Reacquire(wi, c.threads[wi].mutex)
	}
}

// CondCancel takes thread ti off condition cv's queue when its timeout
// expires; false if a signal already released it.
func (c *Core) CondCancel(cv, ti int32) bool {
	o := &c.objs[cv]
	if !c.remove(&o.condQ, ti) {
		return false
	}
	o.condLen--
	return true
}

// Reacquire ends a wait that must re-acquire mutex m (Nil for none):
// thread ti takes m and wakes, or queues on m and wakes when it is handed
// over.
func (c *Core) Reacquire(ti, m int32) {
	if m == Nil || c.MutexTryLock(m, ti) {
		c.wake(ti, Nil)
		return
	}
	c.enqueue(&c.objs[m].mutexQ, ti, m)
}

// ---- readers/writer lock -----------------------------------------------------------

// RWHolds reports whether thread ti holds rwlock oi in either mode.
func (c *Core) RWHolds(oi, ti int32) bool {
	o := &c.objs[oi]
	return o.writer == ti || slices.Contains(o.readers, ti)
}

// RdLock takes rwlock oi for reading, or queues thread ti and returns
// false. Writer preference: a reader queues behind any waiting writer.
func (c *Core) RdLock(oi, ti int32) bool {
	o := &c.objs[oi]
	if o.writer == Nil && o.wrQ.head == Nil {
		o.readers = append(o.readers, ti)
		return true
	}
	c.enqueue(&o.rdQ, ti, oi)
	return false
}

// WrLock takes rwlock oi exclusively, or queues thread ti and returns
// false.
func (c *Core) WrLock(oi, ti int32) bool {
	o := &c.objs[oi]
	if o.writer == Nil && len(o.readers) == 0 {
		o.writer = ti
		return true
	}
	c.enqueue(&o.wrQ, ti, oi)
	return false
}

// RWUnlock releases thread ti's hold on rwlock oi; false if ti holds
// none. The last holder out grants the first waiting writer, or else
// every waiting reader.
func (c *Core) RWUnlock(oi, ti int32) bool {
	o := &c.objs[oi]
	if o.writer == ti {
		o.writer = Nil
	} else if i := slices.Index(o.readers, ti); i >= 0 {
		o.readers = slices.Delete(o.readers, i, i+1)
		if len(o.readers) > 0 {
			return true
		}
	} else {
		return false
	}
	if wi := c.pop(&o.wrQ); wi != Nil {
		o.writer = wi
		c.wake(wi, ti)
		return true
	}
	for ri := c.pop(&o.rdQ); ri != Nil; ri = c.pop(&o.rdQ) {
		o.readers = append(o.readers, ri)
		c.wake(ri, ti)
	}
	return true
}

// ---- I/O device -----------------------------------------------------------------------

// IO submits thread ti's request to device oi, served in FIFO order. The
// thread waits until IODone completes it.
func (c *Core) IO(oi, ti int32) {
	o := &c.objs[oi]
	if o.ioCur != Nil {
		c.enqueue(&o.ioQ, ti, oi)
		return
	}
	c.threads[ti].on = oi
	o.ioCur = ti
	c.eng.StartIO(oi, ti)
}

// IODone completes device oi's request in service and starts the next.
func (c *Core) IODone(oi int32) {
	o := &c.objs[oi]
	done := o.ioCur
	o.ioCur = Nil
	c.wake(done, Nil)
	if next := c.pop(&o.ioQ); next != Nil {
		o.ioCur = next
		c.eng.StartIO(oi, next)
	}
}

// ---- join -----------------------------------------------------------------------------

// Join completes thread ti's thr_join of target, or of any thread when
// target is Nil (paper section 6: the first exit wins, which need not be
// the one the recording saw). It returns true when an exited thread was
// reaped at once (reported through Engine.Joined); otherwise ti waits
// for the exit.
func (c *Core) Join(ti, target int32) bool {
	if target == Nil {
		if z := c.pop(&c.zombies); z != Nil {
			c.eng.Joined(ti, z)
			return true
		}
		c.enqueue(&c.anyJoin, ti, Nil)
		return false
	}
	t := &c.threads[target]
	if !t.exited {
		c.enqueue(&t.joinQ, ti, Nil)
		return false
	}
	// Reaping an already reaped thread completes at once too, as
	// thr_join does with ESRCH.
	c.remove(&c.zombies, target)
	c.eng.Joined(ti, target)
	return true
}

// Exit records that thread ti exited: every thread joining it by name,
// else the oldest wildcard joiner, reaps it and wakes; with no joiner it
// becomes a zombie.
func (c *Core) Exit(ti int32) {
	t := &c.threads[ti]
	t.exited = true
	joined := false
	for ji := c.pop(&t.joinQ); ji != Nil; ji = c.pop(&t.joinQ) {
		c.eng.Joined(ji, ti)
		c.wake(ji, ti)
		joined = true
	}
	if !joined {
		if ji := c.pop(&c.anyJoin); ji != Nil {
			c.eng.Joined(ji, ti)
			c.wake(ji, ti)
			joined = true
		}
	}
	if !joined {
		c.enqueue(&c.zombies, ti, Nil)
	}
}
