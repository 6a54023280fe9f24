package threadlib

import (
	"fmt"
	"slices"

	"vppb/internal/dispatch"
	"vppb/internal/sched"
	"vppb/internal/syncobj"
	"vppb/internal/trace"
)

// object is a synchronization object's identity. Its state lives in the
// shared object core (internal/syncobj) at index oi, which is also its
// position in Process.objects.
type object struct {
	id   trace.ObjectID
	kind trace.ObjectKind
	name string
	// initCount preserves a semaphore's creation-time count.
	initCount int
	oi        int32
	// io is a device's I/O-completion timer slot in the scheduler core.
	io int32
}

// newObject registers a synchronization object. It is safe to call both
// before Run and from thread bodies, because user code never runs
// concurrently with the kernel.
func (p *Process) newObject(kind trace.ObjectKind, name string, initCount int) *object {
	o := &object{id: p.nextOID, kind: kind, name: name, initCount: initCount, oi: p.so.AddObject(kind, initCount)}
	p.nextOID++
	p.objects = append(p.objects, o)
	if kind == trace.ObjDevice {
		o.io = p.sc.AddTimer(sched.Event{Kind: evIODone, Who: o.oi})
	}
	if p.cfg.Hook != nil {
		p.cfg.Hook.HandleObject(trace.ObjectInfo{ID: o.id, Kind: kind, Name: name, InitCount: int32(initCount)})
	}
	return o
}

// Apply executes the semantic effect of the thread's pending call, after
// the progress guard. Object state and grant rules live in
// internal/syncobj, shared with the Simulator; this file keeps the
// live-API rules: try results, misuse errors with their source location,
// real timeouts and the held-mutex stack. It returns true if the thread
// can no longer continue on this CPU (it blocked, yielded, or exited) or
// the guard failed the run.
func (e *kengine) Apply(cpu, ti int32) (blocked bool) {
	p := (*Process)(e)
	kt := p.threads[ti]
	if !p.guardProgress(kt) {
		return true
	}
	req := kt.req
	switch req.kind {
	case trace.CallThrCreate:
		return p.opCreate(kt)
	case trace.CallThrExit:
		p.exitThread(cpu, kt)
		return true
	case trace.CallThrJoin:
		return p.opJoin(cpu, kt)
	case trace.CallThrYield:
		p.sc.Yield(cpu, kt.TI)
		return true
	case trace.CallThrSetPrio:
		// The caller sets its own priority, so it is running, not queued.
		kt.Prio = dispatch.Clamp(req.prio)
		return false
	case trace.CallThrSetConcurrency:
		return p.opSetConcurrency(kt)
	case trace.CallMutexLock:
		if p.so.Owner(req.obj.oi) == kt.TI {
			p.sc.Fail(fmt.Errorf("threadlib: thread T%d relocked mutex %q it already holds at %s", kt.id, req.obj.name, req.loc))
			return true
		}
		return p.sc.BlockUnless(p.so.MutexLock(req.obj.oi, kt.TI), cpu, kt.TI)
	case trace.CallMutexTryLock:
		kt.resp.ok = p.so.MutexTryLock(req.obj.oi, kt.TI)
		return false
	case trace.CallMutexUnlock:
		return p.opMutexUnlock(kt)
	case trace.CallSemaWait:
		return p.sc.BlockUnless(p.so.SemaWait(req.obj.oi, kt.TI), cpu, kt.TI)
	case trace.CallSemaTryWait:
		kt.resp.ok = p.so.SemaTryWait(req.obj.oi)
		return false
	case trace.CallSemaPost:
		p.so.SemaPost(req.obj.oi, kt.TI)
		return false
	case trace.CallCondWait, trace.CallCondTimedWait:
		return p.opCondWait(cpu, kt)
	case trace.CallCondSignal:
		p.so.CondSignal(req.obj.oi, 1)
		return false
	case trace.CallCondBroadcast:
		p.so.CondSignal(req.obj.oi, p.so.CondLen(req.obj.oi))
		return false
	case trace.CallRWRdLock, trace.CallRWWrLock:
		if p.so.RWHolds(req.obj.oi, kt.TI) {
			p.sc.Fail(fmt.Errorf("threadlib: thread T%d re-entered rwlock %q at %s", kt.id, req.obj.name, req.loc))
			return true
		}
		if req.kind == trace.CallRWRdLock {
			return p.sc.BlockUnless(p.so.RdLock(req.obj.oi, kt.TI), cpu, kt.TI)
		}
		return p.sc.BlockUnless(p.so.WrLock(req.obj.oi, kt.TI), cpu, kt.TI)
	case trace.CallRWUnlock:
		if !p.so.RWUnlock(req.obj.oi, kt.TI) {
			p.sc.Fail(fmt.Errorf("threadlib: thread T%d unlocked rwlock %q it does not hold at %s", kt.id, req.obj.name, req.loc))
			return true
		}
		return false
	case trace.CallIO:
		p.so.IO(req.obj.oi, kt.TI)
		p.sc.Block(cpu, kt.TI)
		return true
	case trace.CallThrSuspend:
		target, ok := p.lookupTarget(kt, "suspended")
		return !ok || p.sc.Suspend(cpu, kt.TI, target.TI)
	case trace.CallThrContinue:
		target, ok := p.lookupTarget(kt, "continued")
		if ok {
			p.sc.Continue(kt.TI, target.TI)
		}
		return !ok
	}
	p.sc.Fail(fmt.Errorf("threadlib: thread T%d issued unknown call %v", kt.id, req.kind))
	return true
}

func (p *Process) opCreate(kt *kthread) bool {
	req := kt.req
	if req.body == nil {
		p.sc.Fail(fmt.Errorf("threadlib: thr_create with nil body at %s", req.loc))
		return true
	}
	co := req.copts
	if co.name == "" {
		co.name = fmt.Sprintf("T%d", req.reservedTID)
	}
	child := p.newThread(req.reservedTID, co.name, req.fname, co)
	p.spawn(child, req.body)
	p.resume(child)
	p.sc.Wake(child.TI, false)
	kt.resp.tid = child.id
	return false
}

func (p *Process) opJoin(cpu int32, kt *kthread) bool {
	req := kt.req
	if req.target == kt.id {
		p.sc.Fail(fmt.Errorf("threadlib: thread T%d joined itself at %s", kt.id, req.loc))
		return true
	}
	target := syncobj.Nil // wildcard: reap the oldest zombie, or wait for any exit
	if req.target != 0 {
		t, ok := p.byID[req.target]
		if !ok {
			p.sc.Fail(fmt.Errorf("threadlib: thread T%d joined unknown thread T%d at %s", kt.id, req.target, req.loc))
			return true
		}
		target = t.TI
	}
	if p.so.Join(kt.TI, target) {
		return false
	}
	if target == syncobj.Nil && p.sc.Live() == 1 {
		p.sc.Fail(fmt.Errorf("threadlib: thread T%d wildcard-joined with no other threads at %s", kt.id, req.loc))
		return true
	}
	p.sc.Block(cpu, kt.TI)
	return true
}

func (p *Process) opSetConcurrency(kt *kthread) bool {
	// A user-fixed LWP count overrides the program's request, exactly as
	// in the Simulator (paper section 3.2). The request is still checked:
	// a recording runs on a fixed pool, and its replay on a dynamic pool
	// honours the request.
	if err := p.sc.SetConcurrency(kt.req.n); err != nil {
		p.sc.Fail(fmt.Errorf("threadlib: %w at %s", err, kt.req.loc))
		return true
	}
	return false
}

// ---- held-mutex stack ---------------------------------------------------------
//
// kt.held lists the mutexes the thread owns, in acquisition order; the top
// entry is stamped onto cond_broadcast events so the Simulator's barrier
// fix knows which mutex a blocked broadcaster must release. Only the
// thread itself acquires or releases its mutexes, so the stack changes at
// its own calls: pushed when an acquiring call completes, dropped when it
// unlocks or starts a condition wait.

// pushHeld records the mutex the thread's completed call acquired.
func pushHeld(kt *kthread) {
	switch req := kt.req; req.kind {
	case trace.CallMutexLock:
		kt.held = append(kt.held, req.obj)
	case trace.CallMutexTryLock:
		if kt.resp.ok {
			kt.held = append(kt.held, req.obj)
		}
	case trace.CallCondWait, trace.CallCondTimedWait:
		kt.held = append(kt.held, req.mutex)
	}
}

// dropHeld removes o from kt's holder stack.
func dropHeld(kt *kthread, o *object) {
	if i := slices.Index(kt.held, o); i >= 0 {
		kt.held = slices.Delete(kt.held, i, i+1)
	}
}

func (p *Process) opMutexUnlock(kt *kthread) bool {
	o := kt.req.obj
	if owner := p.so.Owner(o.oi); owner != kt.TI {
		holder := "nobody"
		if owner != syncobj.Nil {
			holder = fmt.Sprintf("T%d", p.threads[owner].id)
		}
		p.sc.Fail(fmt.Errorf("threadlib: thread T%d unlocked mutex %q held by %s at %s", kt.id, o.name, holder, kt.req.loc))
		return true
	}
	dropHeld(kt, o)
	p.so.MutexUnlock(o.oi, kt.TI)
	return false
}

// ---- condition variable ---------------------------------------------------

func (p *Process) opCondWait(cpu int32, kt *kthread) bool {
	req := kt.req
	cv, m := req.obj, req.mutex
	if m == nil || m.kind != trace.ObjMutex {
		p.sc.Fail(fmt.Errorf("threadlib: cond_wait on %q without a mutex at %s", cv.name, req.loc))
		return true
	}
	if p.so.Owner(m.oi) != kt.TI {
		p.sc.Fail(fmt.Errorf("threadlib: thread T%d cond_wait on %q without holding mutex %q at %s", kt.id, cv.name, m.name, req.loc))
		return true
	}
	// Atomically release the mutex and sleep on the condition.
	dropHeld(kt, m)
	p.so.CondWait(cv.oi, m.oi, kt.TI)
	kt.resp.ok = true
	// Every wait re-arms or disarms the thread's timer, so the timeout of
	// an earlier wait can never end this one.
	if req.kind == trace.CallCondTimedWait {
		p.sc.Arm(kt.timer, p.now.Add(req.timeout))
	} else {
		p.sc.Disarm(kt.timer)
	}
	p.sc.Block(cpu, kt.TI)
	return true
}

// timedWaitExpired handles a cond_timedwait timeout: unless a signal
// already released the thread, it leaves the condition queue and
// re-acquires the mutex with a false result. The thread is still in its
// timed wait, as the wake that ends a wait disarms the timer; a signalled
// thread that is waiting for its mutex is left to it.
func (p *Process) timedWaitExpired(kt *kthread) {
	if !p.so.CondCancel(kt.req.obj.oi, kt.TI) {
		return
	}
	kt.resp.ok = false
	p.so.Reacquire(kt.TI, kt.req.mutex.oi)
}

// ---- thr_suspend / thr_continue ----------------------------------------------
//
// The state machine is sched.Core's; this engine resolves the target and
// reports a misuse with its source location.

// lookupTarget resolves the target of kt's thr_suspend or thr_continue.
func (p *Process) lookupTarget(kt *kthread, verb string) (*kthread, bool) {
	target, ok := p.byID[kt.req.target]
	if !ok {
		p.sc.Fail(fmt.Errorf("threadlib: thread T%d %s unknown thread T%d at %s", kt.id, verb, kt.req.target, kt.req.loc))
	}
	return target, ok
}
