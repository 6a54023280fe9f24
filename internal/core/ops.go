package core

import (
	"fmt"

	"vppb/internal/dispatch"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// applyOp executes the semantic effect of the thread's current call record
// under the paper's replay rules. dc carries the record's precomputed
// arena indices (trace.ProfileIndex), so the hot path resolves objects and
// target threads without a map lookup. It returns true when the thread can
// no longer continue on this CPU.
func (s *sim) applyOp(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) (blocked bool) {
	switch r.Call {
	case trace.CallStartCollect, trace.CallEndCollect:
		return false
	case trace.CallThrCreate:
		return s.opCreate(t, dc)
	case trace.CallThrExit:
		s.exitThread(cpu, t)
		return true
	case trace.CallThrJoin:
		return s.opJoin(cpu, t, r, dc)
	case trace.CallThrYield:
		return s.opYield(cpu, t)
	case trace.CallThrSetPrio:
		if !t.prioPinned {
			t.prio = dispatch.Clamp(int(r.Prio))
			if s.sc.RemoveUserRunQ(t) {
				s.sc.PushUserRunQ(t)
			}
		}
		return false
	case trace.CallThrSetConcurrency:
		s.opSetConcurrency(int(r.Prio))
		return false
	case trace.CallMutexLock:
		return s.opMutexLock(cpu, t, r, dc)
	case trace.CallMutexTryLock:
		// Paper rule: a try that succeeded in the log is simulated as a
		// blocking lock; a failed try is a no-op.
		if r.OK {
			return s.opMutexLock(cpu, t, r, dc)
		}
		return false
	case trace.CallMutexUnlock:
		return s.opMutexUnlock(t, r, dc)
	case trace.CallSemaWait:
		return s.opSemaWait(cpu, t, r, dc)
	case trace.CallSemaTryWait:
		if r.OK {
			return s.opSemaWait(cpu, t, r, dc)
		}
		return false
	case trace.CallSemaPost:
		s.semaPost(t, s.obj(dc.Obj, r.Object))
		return false
	case trace.CallCondWait:
		return s.opCondWait(cpu, t, r, dc)
	case trace.CallCondTimedWait:
		if !r.OK {
			// Timed out in the log: simulated as a delay of the timeout.
			return s.opTimedOutWait(cpu, t, r, dc)
		}
		return s.opCondWait(cpu, t, r, dc)
	case trace.CallCondSignal:
		s.condSignal(t, s.obj(dc.Obj, r.Object), 1)
		return false
	case trace.CallCondBroadcast:
		return s.opBroadcast(cpu, t, r, dc)
	case trace.CallRWRdLock:
		return s.opRWRdLock(cpu, t, r, dc)
	case trace.CallRWWrLock:
		return s.opRWWrLock(cpu, t, r, dc)
	case trace.CallRWUnlock:
		return s.opRWUnlock(t, r, dc)
	case trace.CallIO:
		return s.opIO(cpu, t, r, dc)
	case trace.CallThrSuspend:
		return s.opSuspend(cpu, t, dc)
	case trace.CallThrContinue:
		s.opContinue(t, dc)
		return false
	}
	s.fail(fmt.Errorf("core: thread T%d has unknown call %v in its profile", t.id(), r.Call))
	return true
}

// obj resolves a dense object index, failing the run on dangling
// references (di < 0 for an object the recording never declared).
func (s *sim) obj(di int32, id trace.ObjectID) *sobject {
	if di == nilIdx {
		s.fail(fmt.Errorf("core: profile references unknown object %d", id))
		// Return an inert object so callers can proceed to the error exit.
		if s.inert == nil {
			s.inert = &sobject{}
			initObject(s.inert, trace.ObjectInfo{Kind: trace.ObjRWLock}, nilIdx)
		}
		return s.inert
	}
	return &s.objects[di]
}

// objOrNil resolves an optional object reference (a cond_wait's companion
// mutex) without failing on absence.
func (s *sim) objOrNil(di int32) *sobject {
	if di == nilIdx {
		return nil
	}
	return &s.objects[di]
}

func (s *sim) opCreate(t *sthread, dc *trace.DenseCall) bool {
	if dc.Target == nilIdx {
		// The created thread generated no events in the recording;
		// nothing to replay for it.
		return false
	}
	s.startThread(&s.threads[dc.Target])
	return false
}

func (s *sim) opJoin(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	if r.Target == 0 {
		// Wildcard join: first exit in the simulation wins (paper
		// section 6: it "may not be the one that exited in the log").
		if zi := s.popQ(&s.zombieQ); zi != nilIdx {
			z := &s.threads[zi]
			z.reaped = true
			t.joinedID = z.id()
			return false
		}
		s.pushQ(&s.anyJoinQ, t.ti)
		s.blockThread(cpu, t, nil)
		return true
	}
	if dc.Target != nilIdx {
		target := &s.threads[dc.Target]
		if target.state == tZombie && !target.reaped {
			s.removeQ(&s.zombieQ, target.ti)
			target.reaped = true
			t.joinedID = target.id()
			return false
		}
		if target.state != tZombie {
			s.pushQ(&target.joinQ, t.ti)
			s.blockThread(cpu, t, nil)
			return true
		}
	}
	// Already reaped or never recorded: complete immediately, as thr_join
	// would with ESRCH.
	t.joinedID = r.Target
	return false
}

func (s *sim) opYield(cpu *scpu, t *sthread) bool {
	l := t.lwp
	t.stage = stWaiting
	t.state = tRunnable
	s.setTState(t, trace.StateRunnable, -1, int32(l.ID))
	s.sc.Unlink(cpu, l)
	s.sc.PushKernelQ(l)
	return true
}

func (s *sim) opSetConcurrency(n int) {
	if s.m.LWPs > 0 {
		// The user-supplied LWP count overrides thr_setconcurrency
		// (paper section 3.2).
		return
	}
	if n > MaxCPUs {
		s.fail(fmt.Errorf("core: thr_setconcurrency %d exceeds the limit of %d LWPs", n, MaxCPUs))
		return
	}
	have := 0
	for _, l := range s.lwps {
		if !l.dedicated && !l.dead {
			have++
		}
	}
	for ; have < n; have++ {
		s.sc.ReassignOrIdle(s.newLWP(false))
	}
}

// ---- mutex -----------------------------------------------------------------

func (s *sim) opMutexLock(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	if o.owner == nil {
		o.owner = t
		return false
	}
	if o.owner == t {
		s.fail(fmt.Errorf("core: thread T%d relocks mutex %q (replay diverged?)", t.id(), o.info.Name))
		return true
	}
	s.pushQ(&o.waitQ, t.ti)
	s.blockThread(cpu, t, o)
	return true
}

func (s *sim) opMutexUnlock(t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	if o.owner != t {
		s.fail(fmt.Errorf("core: thread T%d unlocks mutex %q it does not hold in the simulation", t.id(), o.info.Name))
		return true
	}
	s.mutexRelease(t, o)
	return false
}

func (s *sim) mutexRelease(by *sthread, o *sobject) {
	o.owner = nil
	ni := s.popQ(&o.waitQ)
	if ni == nilIdx {
		return
	}
	next := &s.threads[ni]
	o.owner = next
	s.wake(next, fromCPUOf(by), true)
}

// fromCPUOf is the CPU on which the waking thread last ran, used for the
// communication-delay rule.
func fromCPUOf(t *sthread) int {
	if t == nil {
		return -1
	}
	return t.lastCPU
}

// ---- semaphore ---------------------------------------------------------------

func (s *sim) opSemaWait(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	if o.count > 0 {
		o.count--
		return false
	}
	s.pushQ(&o.semaQ, t.ti)
	s.blockThread(cpu, t, o)
	return true
}

func (s *sim) semaPost(by *sthread, o *sobject) {
	if ni := s.popQ(&o.semaQ); ni != nilIdx {
		s.wake(&s.threads[ni], fromCPUOf(by), true)
		return
	}
	o.count++
}

// ---- condition variable -------------------------------------------------------

func (s *sim) opCondWait(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	if m := s.objOrNil(dc.Mutex); m != nil && m.owner == t {
		s.mutexRelease(t, m)
	}
	t.okResult = true
	s.pushQ(&o.condQ, t.ti)
	o.condLen++
	// Suspend first: a pending barrier broadcast may release this very
	// arrival immediately (it was the last one needed), which requires
	// the thread to be off-CPU before it is woken again.
	s.blockThread(cpu, t, o)
	s.checkPendingBroadcast(t, o)
	return true
}

func (s *sim) opTimedOutWait(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	if m := s.objOrNil(dc.Mutex); m != nil && m.owner == t {
		s.mutexRelease(t, m)
	}
	t.okResult = false
	t.timerEpoch++
	s.events.Push(s.now.Add(r.Timeout), sevent{kind: evTimer, who: t.ti, epoch: t.timerEpoch})
	s.blockThread(cpu, t, o)
	return true
}

// timerExpired resumes a timed wait that was simulated as a delay.
func (s *sim) timerExpired(t *sthread) {
	s.reacquireMutexAndWake(t)
}

// condSignal releases up to n waiters; each must re-acquire its mutex.
func (s *sim) condSignal(by *sthread, o *sobject, n int) {
	for i := 0; i < n; i++ {
		wi := s.popQ(&o.condQ)
		if wi == nilIdx {
			return
		}
		o.condLen--
		t := &s.threads[wi]
		t.okResult = true
		s.reacquireMutexAndWake(t)
	}
}

// opBroadcast implements the barrier fix of section 6: when fewer threads
// wait on the condition than the recording released, the broadcaster
// blocks until the recorded number have arrived; the last arrival releases
// everybody, including the broadcaster.
func (s *sim) opBroadcast(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	needed := int(r.Released)
	if o.condLen >= needed {
		s.condSignal(t, o, o.condLen)
		return false
	}
	// The broadcaster waits "at the barrier" for the recorded number of
	// arrivals; like a cond_wait it must release the mutex it holds so
	// that the other threads can reach the condition, and re-acquire it
	// when released.
	if m := s.objOrNil(dc.Mutex); m != nil && m.owner == t {
		s.mutexRelease(t, m)
	}
	o.pendingBroadcasts = append(o.pendingBroadcasts, pendingBroadcast{
		broadcaster: t,
		needed:      needed,
	})
	s.blockThread(cpu, t, o)
	return true
}

// checkPendingBroadcast fires the oldest pending broadcast once enough
// waiters have arrived.
func (s *sim) checkPendingBroadcast(arriver *sthread, o *sobject) {
	if len(o.pendingBroadcasts) == 0 {
		return
	}
	pb := o.pendingBroadcasts[0]
	if o.condLen < pb.needed {
		return
	}
	n := copy(o.pendingBroadcasts, o.pendingBroadcasts[1:])
	o.pendingBroadcasts[n] = pendingBroadcast{}
	o.pendingBroadcasts = o.pendingBroadcasts[:n]
	s.condSignal(arriver, o, o.condLen)
	s.reacquireMutexAndWake(pb.broadcaster)
}

// reacquireMutexAndWake finishes the wait: the thread re-acquires its
// recorded mutex (queueing if contended) and then wakes.
func (s *sim) reacquireMutexAndWake(t *sthread) {
	var m *sobject
	if dc := t.drec(); dc != nil {
		m = s.objOrNil(dc.Mutex)
	}
	if m == nil {
		s.wake(t, -1, true)
		return
	}
	if m.owner == nil {
		m.owner = t
		s.wake(t, -1, true)
		return
	}
	s.pushQ(&m.waitQ, t.ti)
	t.waitObj = m
}

// ---- readers/writer lock -------------------------------------------------------

func (s *sim) opRWRdLock(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	if o.writer == nil && o.wrWaitQ.empty() {
		o.readers = append(o.readers, t.ti)
		return false
	}
	s.pushQ(&o.rdWaitQ, t.ti)
	s.blockThread(cpu, t, o)
	return true
}

func (s *sim) opRWWrLock(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	if o.writer == nil && len(o.readers) == 0 {
		o.writer = t
		return false
	}
	s.pushQ(&o.wrWaitQ, t.ti)
	s.blockThread(cpu, t, o)
	return true
}

func (s *sim) opRWUnlock(t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	switch {
	case o.writer == t:
		o.writer = nil
	case removeReader(o, t.ti):
		if len(o.readers) > 0 {
			return false
		}
	default:
		s.fail(fmt.Errorf("core: thread T%d unlocks rwlock %q it does not hold in the simulation", t.id(), o.info.Name))
		return true
	}
	s.rwRelease(t, o)
	return false
}

// removeReader deletes a thread from the ordered reader set, preserving
// acquisition order; false if the thread is not a reader.
func removeReader(o *sobject, ti int32) bool {
	for i, ri := range o.readers {
		if ri == ti {
			o.readers = append(o.readers[:i], o.readers[i+1:]...)
			return true
		}
	}
	return false
}

func (s *sim) rwRelease(by *sthread, o *sobject) {
	if o.writer != nil || len(o.readers) > 0 {
		return
	}
	if ni := s.popQ(&o.wrWaitQ); ni != nilIdx {
		next := &s.threads[ni]
		o.writer = next
		s.wake(next, fromCPUOf(by), true)
		return
	}
	for ni := s.popQ(&o.rdWaitQ); ni != nilIdx; ni = s.popQ(&o.rdWaitQ) {
		o.readers = append(o.readers, ni)
		s.wake(&s.threads[ni], fromCPUOf(by), true)
	}
}

// ---- I/O device (replayed with the recorded service times) -------------------

func (s *sim) opIO(cpu *scpu, t *sthread, r *trace.CallRecord, dc *trace.DenseCall) bool {
	o := s.obj(dc.Obj, r.Object)
	if o.ioCurrent == nil {
		s.ioStart(o, t, ioService(r))
	} else {
		s.pushQ(&o.ioQ, t.ti)
	}
	s.blockThread(cpu, t, o)
	return true
}

// ioService is the recorded device service time of an I/O record.
func ioService(r *trace.CallRecord) vtime.Duration {
	if r.Timeout < 0 {
		return 0
	}
	return r.Timeout
}

func (s *sim) ioStart(o *sobject, t *sthread, service vtime.Duration) {
	o.ioCurrent = t
	o.ioEpoch++
	s.events.Push(s.now.Add(service), sevent{kind: evIODone, who: o.oi, epoch: o.ioEpoch})
}

func (s *sim) ioDone(o *sobject, epoch uint64) {
	if o.ioEpoch != epoch || o.ioCurrent == nil {
		return
	}
	done := o.ioCurrent
	o.ioCurrent = nil
	s.wake(done, -1, true)
	if ni := s.popQ(&o.ioQ); ni != nilIdx {
		// The queued requester is still parked on its I/O record, so its
		// recorded service time can be re-read rather than stored.
		next := &s.threads[ni]
		s.ioStart(o, next, ioService(next.rec()))
	}
}

// ---- thr_suspend / thr_continue (replayed) ------------------------------------

func (s *sim) opSuspend(cpu *scpu, t *sthread, dc *trace.DenseCall) bool {
	if dc.Target == nilIdx {
		return false
	}
	target := &s.threads[dc.Target]
	if target.suspended || target.state == tZombie || target.state == tNotStarted {
		return false
	}
	target.suspended = true
	switch {
	case target == t:
		t.parkedReady = true
		t.stage = stWaiting
		t.state = tSleeping
		s.setTState(t, trace.StateBlocked, -1, -1)
		s.detachFromCPU(cpu, t)
		return true
	case target.state == tRunning:
		tcpu := target.lwp.cpu
		s.account(tcpu)
		s.parkOffCPU(tcpu, target)
		target.parkedReady = true
		return false
	case target.state == tRunnable:
		s.unqueueRunnable(target)
		target.parkedReady = true
		target.state = tSleeping
		s.setTState(target, trace.StateBlocked, -1, -1)
		return false
	case target.state == tWakePending:
		// The communication-delayed wake converts to a deferred grant.
		target.state = tSleeping
		target.grantLater = true
		target.wakeEpoch++
		return false
	default:
		return false
	}
}

func (s *sim) parkOffCPU(cpu *scpu, t *sthread) {
	t.state = tSleeping
	s.setTState(t, trace.StateBlocked, -1, -1)
	l := t.lwp
	s.sc.Unlink(cpu, l)
	if !t.bound {
		l.thread = nil
		t.lwp = nil
		s.sc.NextThread(cpu, l)
	}
}

func (s *sim) unqueueRunnable(t *sthread) {
	if t.lwp == nil {
		s.sc.RemoveUserRunQ(t)
		return
	}
	l := t.lwp
	s.sc.RemoveKernelQ(l)
	if !t.bound {
		l.thread = nil
		t.lwp = nil
		s.sc.ReassignOrIdle(l)
	}
}

func (s *sim) opContinue(t *sthread, dc *trace.DenseCall) {
	if dc.Target == nilIdx {
		return
	}
	target := &s.threads[dc.Target]
	if !target.suspended || target.state == tZombie {
		return
	}
	target.suspended = false
	switch {
	case target.parkedReady:
		target.parkedReady = false
		s.wake(target, fromCPUOf(t), true)
	case target.grantLater:
		target.grantLater = false
		s.wake(target, fromCPUOf(t), true)
	}
}
