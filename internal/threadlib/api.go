package threadlib

import (
	"fmt"
	"reflect"
	"runtime"

	"vppb/internal/source"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// Thread is the user-side handle a program body receives. All methods must
// be called from the thread's own body; they hand control to the kernel and
// return when the (virtual-time) operation completes. A call through
// another thread's handle fails the run.
type Thread struct {
	p  *Process
	kt *kthread
	// yield hands the body's next request to the kernel (spawn).
	yield func(*request) bool
	// pendingCompute accumulates Compute durations until the next library
	// call carries them to the kernel as the thread's CPU burst.
	pendingCompute vtime.Duration
	// req is the call in flight. A thread makes one call at a time, and
	// the kernel reads the request only until the call completes, so
	// every call reuses this one.
	req request
}

// ID returns the thread's identity (main is 1; created threads count from
// 4, as in Solaris).
func (t *Thread) ID() trace.ThreadID { return t.kt.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.kt.name }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.p }

// Now returns the current virtual time as of the thread's last interaction
// with the kernel.
func (t *Thread) Now() vtime.Time { return t.p.now }

// Compute declares d microseconds of CPU work. The work is charged at the
// thread's next library call; negative durations are ignored.
func (t *Thread) Compute(d vtime.Duration) {
	if d > 0 {
		t.pendingCompute += d
	}
}

// CreateOption customizes thr_create.
type CreateOption func(*createOpts)

type createOpts struct {
	name     string
	bound    bool
	boundCPU int
	prio     int
	hasPrio  bool
}

// WithName names the new thread (used in recordings and graphs).
func WithName(name string) CreateOption {
	return func(o *createOpts) { o.name = name }
}

// Bound creates the thread bound to its own LWP (THR_BOUND), making its
// creation and synchronization more expensive by the paper's factors.
func Bound() CreateOption {
	return func(o *createOpts) { o.bound = true }
}

// BoundToCPU additionally binds the thread to one processor. A thread
// bound to a CPU is automatically bound to an LWP (paper section 3.2).
func BoundToCPU(cpu int) CreateOption {
	return func(o *createOpts) { o.bound = true; o.boundCPU = cpu }
}

// WithPriority sets the new thread's initial user priority.
func WithPriority(prio int) CreateOption {
	return func(o *createOpts) { o.prio = prio; o.hasPrio = true }
}

// Create starts a new thread running body, like thr_create(3T). It returns
// the new thread's ID; the thread is immediately runnable.
func (t *Thread) Create(body func(*Thread), opts ...CreateOption) trace.ThreadID {
	co := createOpts{boundCPU: -1, prio: defaultUserPrio}
	for _, o := range opts {
		o(&co)
	}
	resp := t.call(request{
		kind:  trace.CallThrCreate,
		body:  body,
		fname: funcName(body),
		copts: co,
	})
	return resp.tid
}

// Exit terminates the calling thread immediately, like thr_exit(3T).
// Returning from the body is equivalent.
func (t *Thread) Exit() {
	panic(panicExit)
}

// Join waits for the thread target to exit, like thr_join(3T). It returns
// the identity of the joined thread.
func (t *Thread) Join(target trace.ThreadID) trace.ThreadID {
	resp := t.call(request{kind: trace.CallThrJoin, target: target})
	return resp.tid
}

// JoinAny waits for any thread to exit (thr_join with a wildcard, paper
// section 6) and returns the identity of the reaped thread.
func (t *Thread) JoinAny() trace.ThreadID {
	resp := t.call(request{kind: trace.CallThrJoin, target: 0})
	return resp.tid
}

// Yield surrenders the processor to another runnable thread, like
// thr_yield(3T).
func (t *Thread) Yield() {
	t.call(request{kind: trace.CallThrYield})
}

// SetPriority changes the calling thread's user priority, like
// thr_setprio(3T).
func (t *Thread) SetPriority(prio int) {
	t.call(request{kind: trace.CallThrSetPrio, prio: prio})
}

// SetConcurrency advises the kernel to keep n LWPs available, like
// thr_setconcurrency(3T). It has no effect when the process was configured
// with a fixed LWP count, matching the Simulator's rule (paper section
// 3.2).
func (t *Thread) SetConcurrency(n int) {
	t.call(request{kind: trace.CallThrSetConcurrency, n: n})
}

// Mutex is a mutual exclusion lock (mutex_lock(3T) family).
type Mutex struct{ obj *object }

// NewMutex creates a named mutex. Safe to call both before Run and from
// thread bodies.
func (p *Process) NewMutex(name string) *Mutex {
	return &Mutex{obj: p.newObject(trace.ObjMutex, name, 0)}
}

// Lock acquires the mutex, blocking while another thread holds it.
func (m *Mutex) Lock(t *Thread) {
	t.call(request{kind: trace.CallMutexLock, obj: m.obj})
}

// TryLock attempts the lock without blocking and reports whether it was
// acquired.
func (m *Mutex) TryLock(t *Thread) bool {
	return t.call(request{kind: trace.CallMutexTryLock, obj: m.obj}).ok
}

// Unlock releases the mutex. Unlocking a mutex the caller does not hold
// aborts the run with an error.
func (m *Mutex) Unlock(t *Thread) {
	t.call(request{kind: trace.CallMutexUnlock, obj: m.obj})
}

// Sema is a counting semaphore (sema_wait(3T) family).
type Sema struct{ obj *object }

// NewSema creates a named semaphore with an initial count.
func (p *Process) NewSema(name string, count int) *Sema {
	return &Sema{obj: p.newObject(trace.ObjSema, name, count)}
}

// Wait decrements the semaphore, blocking while the count is zero.
func (s *Sema) Wait(t *Thread) {
	t.call(request{kind: trace.CallSemaWait, obj: s.obj})
}

// TryWait attempts the decrement without blocking and reports success.
func (s *Sema) TryWait(t *Thread) bool {
	return t.call(request{kind: trace.CallSemaTryWait, obj: s.obj}).ok
}

// Post increments the semaphore, releasing one waiter if any.
func (s *Sema) Post(t *Thread) {
	t.call(request{kind: trace.CallSemaPost, obj: s.obj})
}

// Cond is a condition variable (cond_wait(3T) family).
type Cond struct{ obj *object }

// NewCond creates a named condition variable.
func (p *Process) NewCond(name string) *Cond {
	return &Cond{obj: p.newObject(trace.ObjCond, name, 0)}
}

// Wait atomically releases m and sleeps until signalled, then re-acquires
// m before returning. The caller must hold m.
func (c *Cond) Wait(t *Thread, m *Mutex) {
	t.call(request{kind: trace.CallCondWait, obj: c.obj, mutex: m.obj})
}

// TimedWait is Wait with a timeout. It reports true if the thread was
// signalled and false if the timeout expired. In both cases m is held on
// return.
func (c *Cond) TimedWait(t *Thread, m *Mutex, timeout vtime.Duration) bool {
	return t.call(request{
		kind: trace.CallCondTimedWait, obj: c.obj, mutex: m.obj, timeout: timeout,
	}).ok
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal(t *Thread) {
	t.call(request{kind: trace.CallCondSignal, obj: c.obj})
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *Thread) {
	t.call(request{kind: trace.CallCondBroadcast, obj: c.obj})
}

// Device is a FIFO-serviced I/O device. Thread.IO issues a request that
// blocks the calling thread for the device's service time without
// consuming CPU — the I/O modelling the paper lists as future work
// (section 6: "our technique does not model I/O").
type Device struct{ obj *object }

// NewDevice creates a named I/O device with FIFO service.
func (p *Process) NewDevice(name string) *Device {
	return &Device{obj: p.newObject(trace.ObjDevice, name, 0)}
}

// IO performs an I/O request of the given service time on the device. The
// thread blocks (without consuming CPU) until the device, serving requests
// in FIFO order, completes it.
func (d *Device) IO(t *Thread, service vtime.Duration) {
	t.call(request{kind: trace.CallIO, obj: d.obj, timeout: service})
}

// Suspend stops the target thread from executing until Continue, like
// thr_suspend(3T). Suspending an already-suspended thread is a no-op.
func (t *Thread) Suspend(target trace.ThreadID) {
	t.call(request{kind: trace.CallThrSuspend, target: target})
}

// Continue resumes a thread stopped by Suspend, like thr_continue(3T).
func (t *Thread) Continue(target trace.ThreadID) {
	t.call(request{kind: trace.CallThrContinue, target: target})
}

// RWLock is a readers/writer lock (rw_rdlock(3T) family) with writer
// preference.
type RWLock struct{ obj *object }

// NewRWLock creates a named readers/writer lock.
func (p *Process) NewRWLock(name string) *RWLock {
	return &RWLock{obj: p.newObject(trace.ObjRWLock, name, 0)}
}

// RdLock acquires the lock for reading; multiple readers may hold it.
func (l *RWLock) RdLock(t *Thread) {
	t.call(request{kind: trace.CallRWRdLock, obj: l.obj})
}

// WrLock acquires the lock exclusively.
func (l *RWLock) WrLock(t *Thread) {
	t.call(request{kind: trace.CallRWWrLock, obj: l.obj})
}

// Unlock releases the caller's hold (read or write).
func (l *RWLock) Unlock(t *Thread) {
	t.call(request{kind: trace.CallRWUnlock, obj: l.obj})
}

// request is one thread-library call in flight from a thread body to the
// kernel.
type request struct {
	kind    trace.Call
	burst   vtime.Duration // CPU declared since the previous call
	obj     *object
	mutex   *object // cond_wait's companion mutex
	timeout vtime.Duration
	target  trace.ThreadID
	prio    int
	n       int
	body    func(*Thread)
	fname   string
	copts   createOpts
	loc     source.Loc
	exitErr error // user panic carried out by the implicit exit
	// reservedTID is the identity allocated for a thr_create at its
	// Before probe, so the recorded event can carry the child's ID.
	reservedTID trace.ThreadID
}

// response is the kernel's answer completing a request.
type response struct {
	ok  bool
	tid trace.ThreadID
}

// sentinel panic values controlling thread unwinding.
type sentinel string

const (
	panicExit  sentinel = "threadlib: thr_exit"
	panicAbort sentinel = "threadlib: run aborted"
)

// call hands a request to the kernel and returns when it completes in
// virtual time. A call through another thread's handle panics in the
// caller's body, which fails the run naming both threads; t's own pending
// request is left alone.
func (t *Thread) call(r request) response {
	if t.p.cur != t.kt {
		panic(fmt.Sprintf("%v called through thread T%d's handle at %s", r.kind, t.kt.id, source.Capture(2)))
	}
	t.req = r
	t.req.burst = t.pendingCompute
	t.pendingCompute = 0
	t.req.loc = source.Capture(2)
	if !t.yield(&t.req) {
		panic(panicAbort)
	}
	return t.kt.resp
}

// exitCall is the implicit thr_exit issued when a body returns (or panics).
// Its location skips the body's function and iter.Pull's coroutine start
// to the frame that started the body's goroutine. The kernel stops the
// coroutine once it applies the exit (or the run aborts), ending it here.
func (t *Thread) exitCall(exitErr error) {
	t.req = request{kind: trace.CallThrExit, burst: t.pendingCompute, exitErr: exitErr}
	t.pendingCompute = 0
	t.req.loc = source.Capture(4)
	t.yield(&t.req)
}

// funcName resolves the name of a thread body for recordings, emulating
// the paper's use of the debugger to translate the thr_create function
// pointer into a function name.
func funcName(fn func(*Thread)) string {
	if fn == nil {
		return ""
	}
	pc := reflect.ValueOf(fn).Pointer()
	f := runtime.FuncForPC(pc)
	if f == nil {
		return fmt.Sprintf("func@%#x", pc)
	}
	return f.Name()
}
