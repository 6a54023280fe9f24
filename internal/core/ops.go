package core

import (
	"fmt"
	"slices"

	"vppb/internal/dispatch"
	"vppb/internal/sched"
	"vppb/internal/trace"
)

// Apply executes the semantic effect of the thread's current call record
// under the paper's replay rules. Object state and grant rules live in
// internal/syncobj, shared with the recording kernel; this file keeps what
// replay does differently: try calls follow their recorded outcome, a
// recorded timeout becomes a delay, cond_broadcast applies the barrier
// fix, and a dangling object reference fails the run. The record carries
// its references as arena indices, so the hot path resolves objects and
// target threads without a map lookup. It returns true when the thread
// can no longer continue on this CPU.
func (e *sengine) Apply(cpu, ti int32) (blocked bool) {
	s := (*sim)(e)
	t := &s.threads[ti]
	r := t.rec()
	switch r.Call {
	case trace.CallStartCollect, trace.CallEndCollect:
		return false
	case trace.CallThrCreate:
		if r.Target != nilIdx {
			// A created thread that generated no events in the recording
			// has nothing to replay.
			s.startThread(&s.threads[r.Target])
		}
		return false
	case trace.CallThrExit:
		s.exitThread(cpu, t)
		return true
	case trace.CallThrJoin:
		if r.Target == nilIdx {
			if id := s.prof.Site(r).Target; id != 0 {
				// The target never ran in the recording: complete at
				// once, as thr_join would with ESRCH.
				t.joinedID = id
				return false
			}
		}
		// A wildcard join (dense target nilIdx) takes the first exit in
		// the simulation, which "may not be the one that exited in the
		// log" (paper section 6).
		return s.sc.BlockUnless(s.so.Join(t.TI, r.Target), cpu, t.TI)
	case trace.CallThrYield:
		s.sc.Yield(cpu, t.TI)
		return true
	case trace.CallThrSetPrio:
		// The caller sets its own priority, so it is running, not queued.
		if !t.prioPinned {
			t.Prio = dispatch.Clamp(int(r.Prio))
		}
		return false
	case trace.CallThrSetConcurrency:
		s.opSetConcurrency(int(r.Prio))
		return false
	case trace.CallThrSuspend:
		// A target that never ran in the recording has nothing to suspend.
		if r.Target == nilIdx {
			return false
		}
		// A wake-pending target goes to sleep with its wake deferred to
		// thr_continue, so its delayed wake must not be delivered.
		if tg := &s.threads[r.Target]; tg.State == sched.WakePending {
			s.sc.Disarm(tg.wake)
		}
		return s.sc.Suspend(cpu, t.TI, r.Target)
	case trace.CallThrContinue:
		if r.Target != nilIdx {
			s.sc.Continue(t.TI, r.Target)
		}
		return false
	case trace.CallMutexTryLock, trace.CallSemaTryWait:
		// Paper rule: a try that succeeded in the log is simulated as a
		// blocking acquire; a failed try is a no-op.
		if !r.OK {
			return false
		}
	}
	if !r.Call.Sync() && r.Call != trace.CallIO {
		s.sc.Fail(fmt.Errorf("core: thread T%d has unknown call %v in its profile", t.id(), r.Call))
		return true
	}
	o := r.Obj
	if o == nilIdx {
		s.sc.Fail(fmt.Errorf("core: profile references unknown object %d", s.prof.Site(r).Object))
		return true
	}
	switch r.Call {
	case trace.CallMutexLock, trace.CallMutexTryLock:
		if s.so.Owner(o) == t.TI {
			s.sc.Fail(fmt.Errorf("core: thread T%d relocks mutex %q (replay diverged?)", t.id(), s.objName(o)))
			return true
		}
		return s.sc.BlockUnless(s.so.MutexLock(o, t.TI), cpu, t.TI)
	case trace.CallMutexUnlock:
		if s.so.Owner(o) != t.TI {
			s.sc.Fail(fmt.Errorf("core: thread T%d unlocks mutex %q it does not hold in the simulation", t.id(), s.objName(o)))
			return true
		}
		s.so.MutexUnlock(o, t.TI)
		return false
	case trace.CallSemaWait, trace.CallSemaTryWait:
		return s.sc.BlockUnless(s.so.SemaWait(o, t.TI), cpu, t.TI)
	case trace.CallSemaPost:
		s.so.SemaPost(o, t.TI)
		return false
	case trace.CallCondWait:
		return s.opCondWait(cpu, t, o, r.Mutex)
	case trace.CallCondTimedWait:
		if !r.OK {
			return s.opTimedOutWait(cpu, t, r, o, r.Mutex)
		}
		return s.opCondWait(cpu, t, o, r.Mutex)
	case trace.CallCondSignal:
		s.so.CondSignal(o, 1)
		return false
	case trace.CallCondBroadcast:
		return s.opBroadcast(cpu, t, r, o, r.Mutex)
	case trace.CallRWRdLock:
		return s.sc.BlockUnless(s.so.RdLock(o, t.TI), cpu, t.TI)
	case trace.CallRWWrLock:
		return s.sc.BlockUnless(s.so.WrLock(o, t.TI), cpu, t.TI)
	case trace.CallRWUnlock:
		if !s.so.RWUnlock(o, t.TI) {
			s.sc.Fail(fmt.Errorf("core: thread T%d unlocks rwlock %q it does not hold in the simulation", t.id(), s.objName(o)))
			return true
		}
		return false
	default: // trace.CallIO
		s.so.IO(o, t.TI)
		s.sc.Block(cpu, t.TI)
		return true
	}
}

func (s *sim) objName(oi int32) string { return s.prof.Objects[oi].Name }

func (s *sim) opSetConcurrency(n int) {
	if s.m.LWPs > 0 {
		// The user-supplied LWP count overrides thr_setconcurrency
		// (paper section 3.2).
		return
	}
	if err := s.sc.SetConcurrency(n); err != nil {
		s.sc.Fail(fmt.Errorf("core: %w", err))
	}
}

// ---- condition variable -------------------------------------------------------

func (s *sim) opCondWait(cpu int32, t *sthread, cv, m int32) bool {
	t.okResult = true
	s.so.CondWait(cv, m, t.TI)
	// Block first: a pending barrier broadcast may release this very
	// arrival immediately (it was the last one needed), which requires
	// the thread to be off-CPU before it is woken again.
	s.sc.Block(cpu, t.TI)
	s.checkPendingBroadcast(cv)
	return true
}

// opTimedOutWait replays a cond_timedwait that timed out in the log as a
// delay of its timeout; the thread never joins the condition's queue.
func (s *sim) opTimedOutWait(cpu int32, t *sthread, r *trace.CallRecord, cv, m int32) bool {
	s.so.DropMutex(m, t.TI)
	t.okResult = false
	s.sc.Arm(t.timer, s.now.Add(r.Timeout))
	s.so.WaitOn(t.TI, cv)
	s.sc.Block(cpu, t.TI)
	return true
}

// pendingBroadcast is a barrier-fix broadcaster waiting for its recorded
// number of arrivals on a condition (paper section 6).
type pendingBroadcast struct {
	cv, broadcaster int32
	needed          int
}

// opBroadcast implements the barrier fix of section 6: when fewer threads
// wait on the condition than the recording released, the broadcaster
// blocks until the recorded number have arrived; the last arrival releases
// everybody, including the broadcaster.
func (s *sim) opBroadcast(cpu int32, t *sthread, r *trace.CallRecord, cv, m int32) bool {
	needed := int(r.Released)
	if n := s.so.CondLen(cv); n >= needed {
		s.so.CondSignal(cv, n)
		return false
	}
	// The broadcaster waits "at the barrier" for the recorded number of
	// arrivals; like a cond_wait it must release the mutex it holds so
	// that the other threads can reach the condition, and re-acquire it
	// when released.
	s.so.DropMutex(m, t.TI)
	s.pending = append(s.pending, pendingBroadcast{cv: cv, broadcaster: t.TI, needed: needed})
	s.so.WaitOn(t.TI, cv)
	s.sc.Block(cpu, t.TI)
	return true
}

// checkPendingBroadcast fires the condition's oldest pending broadcast
// once enough waiters have arrived.
func (s *sim) checkPendingBroadcast(cv int32) {
	i := slices.IndexFunc(s.pending, func(pb pendingBroadcast) bool { return pb.cv == cv })
	if i < 0 {
		return
	}
	pb := s.pending[i]
	n := s.so.CondLen(cv)
	if n < pb.needed {
		return
	}
	s.pending = slices.Delete(s.pending, i, i+1)
	s.so.CondSignal(cv, n)
	s.so.Reacquire(pb.broadcaster, s.threads[pb.broadcaster].rec().Mutex)
}
