//go:build go1.23

// spawn's iter.Pull needs Go 1.23; the build line sets this file's
// language version while go.mod still says 1.22.

package threadlib

import (
	"fmt"
	"iter"
	"strings"

	"vppb/internal/dispatch"
	"vppb/internal/sched"
	"vppb/internal/syncobj"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

const defaultUserPrio = 29

// kthread is the kernel-side representation of a thread.
type kthread struct {
	// The embedded sched.ThreadNode (priority, binding, state, call
	// stage, progress, thr_suspend flags, carrying LWP, timeline span
	// cursor) is shared with the Simulator; TI is the thread's position
	// in Process.threads.
	sched.ThreadNode
	id    trace.ThreadID
	name  string
	fname string

	// next resumes the thread's body until its next library call, and
	// stop ends a body parked in one (spawn).
	next func() (*request, bool)
	stop func()

	req  *request
	resp response
	// extraWork folds probe costs into the next work phase.
	extraWork vtime.Duration
	beforeEv  trace.Event

	// timer is the thread's cond_timedwait timeout slot in the scheduler
	// core.
	timer int32
	// held is the stack of mutexes the thread currently owns (see
	// pushHeld).
	held []*object
}

// The kernel's own event kinds follow the scheduler core's burst and
// slice kinds; an event's Who is a thread's TI for evTimer and an
// object's oi for evIODone.
const (
	evTimer  = sched.EvEngine + iota // cond_timedwait timeout
	evIODone                         // device completes its current request
)

// Process is one run of a multithreaded program on the virtual machine.
type Process struct {
	cfg Config
	sc  *sched.Core
	rng *vtime.Rand

	now vtime.Time
	// cur is the thread whose body runs, while one does (resume).
	cur *kthread

	threads []*kthread // indexed by kthread.TI
	byID    map[trace.ThreadID]*kthread
	nextTID trace.ThreadID
	nextOID trace.ObjectID
	objects []*object // indexed by object.oi
	so      *syncobj.Core

	tb        *trace.TimelineBuilder
	eventSeq  int64
	started   bool
	opsNoTime int
}

// NewProcess prepares a process with the given configuration. Synchronization
// objects may be created immediately; Run starts the program.
func NewProcess(cfg Config) *Process {
	c := cfg.withDefaults()
	p := &Process{
		cfg:     c,
		rng:     vtime.NewRand(c.Seed),
		byID:    make(map[trace.ThreadID]*kthread),
		nextTID: trace.FirstDynamicThread,
		nextOID: 1,
	}
	pol, err := sched.New(c.Policy)
	if err != nil {
		// Surface the bad policy at Run; fall back to the default so the
		// process stays usable for object creation until then.
		err = fmt.Errorf("threadlib: %w", err)
		pol, _ = sched.New(sched.Default)
	}
	// A fixed LWP count is honoured exactly; the dynamic default starts
	// with one LWP per CPU, standing in for Solaris's automatic pool
	// growth on SIGWAITING.
	p.sc = sched.NewCore(pol, (*kengine)(p), &p.now, sched.Config{
		CPUs:         c.CPUs,
		LWPs:         c.LWPs,
		NoPreemption: c.NoPreemption,
		Costs:        sched.Overheads{ContextSwitch: c.Costs.ContextSwitch, Migration: c.Costs.Migration},
	})
	p.sc.Fail(err)
	p.so = syncobj.New((*kengine)(p), 0, 0)
	if c.CollectTimeline {
		p.tb = trace.NewTimelineBuilder()
	}
	return p
}

// Now returns the current virtual time.
func (p *Process) Now() vtime.Time { return p.now }

// Result summarizes a completed run.
type Result struct {
	// Duration is the virtual execution time of the program.
	Duration vtime.Duration
	// Timeline describes the execution, when collection was enabled.
	Timeline *trace.Timeline
	// Threads is the total number of threads that ran.
	Threads int
	// Events is the number of probe events fired.
	Events int64
	// PerThreadCPU maps each thread to the CPU time it consumed.
	PerThreadCPU map[trace.ThreadID]vtime.Duration
}

// Run executes main as the program's initial thread and drives the virtual
// machine until every thread has exited. It returns the run summary, or an
// error if the program deadlocked, livelocked, panicked or misused the
// thread API.
func (p *Process) Run(main func(*Thread)) (*Result, error) {
	if err := p.sc.Err(); err != nil {
		return nil, err
	}
	if p.started {
		return nil, fmt.Errorf("threadlib: process already run")
	}
	if main == nil {
		return nil, fmt.Errorf("threadlib: nil main function")
	}
	p.started = true

	mt := p.newThread(trace.MainThread, "main", funcName(main), createOpts{boundCPU: -1, prio: defaultUserPrio})
	p.fireMarker(mt, trace.CallStartCollect)
	p.spawn(mt, main)
	p.resume(mt)
	p.sc.Wake(mt.TI, false)
	if err := p.sc.Run(); err != nil {
		p.abortAll()
		return nil, err
	}

	res := &Result{
		Duration:     p.now.Sub(0),
		Threads:      len(p.threads),
		Events:       p.eventSeq,
		PerThreadCPU: make(map[trace.ThreadID]vtime.Duration, len(p.threads)),
	}
	for _, kt := range p.threads {
		res.PerThreadCPU[kt.id] = kt.CPUTime
	}
	if p.tb != nil {
		res.Timeline = p.tb.Build(p.cfg.Program, p.cfg.CPUs, p.sc.LWPs(), res.Duration)
		for _, o := range p.objects {
			res.Timeline.Objects = append(res.Timeline.Objects, trace.ObjectInfo{
				ID: o.id, Kind: o.kind, Name: o.name, InitCount: int32(o.initCount),
			})
		}
	}
	return res, nil
}

// Deadlock names each live thread, its state and what it waits on. A
// thread stopped in the burst before its next call (a thr_suspend took it
// off its CPU) is named with that call, which it has not reached.
func (e *kengine) Deadlock() error {
	p := (*Process)(e)
	var b strings.Builder
	fmt.Fprintf(&b, "threadlib: deadlock at %v:", p.now)
	for _, kt := range p.threads {
		if kt.State == sched.Zombie {
			continue
		}
		if kt.Stage == sched.StageCompute {
			fmt.Fprintf(&b, " T%d(%s) %s before %s;", kt.id, kt.name, kt.State, kt.req.kind)
			continue
		}
		obj := "?"
		if oi := p.so.WaitingOn(kt.TI); oi != syncobj.Nil {
			obj = fmt.Sprintf("%s %q", p.objects[oi].kind, p.objects[oi].name)
		} else if kt.req != nil && kt.req.kind == trace.CallThrJoin {
			obj = fmt.Sprintf("thr_join T%d", kt.req.target)
		}
		fmt.Fprintf(&b, " T%d(%s) %s on %s at %s;", kt.id, kt.name, kt.State, obj, kt.req.loc)
	}
	return fmt.Errorf("%s", b.String())
}

// abortAll stops every live thread's body so the host process does not
// leak its coroutine after a failed run: the body's pending call panics
// with panicAbort and the body unwinds. Its teardown is the one state
// change that bypasses sched.ThreadNode.To: the run is over, and threads
// in any state go straight to zombie.
func (p *Process) abortAll() {
	for _, kt := range p.threads {
		if kt.State != sched.Zombie {
			kt.State = sched.Zombie
			kt.stop()
		}
	}
}

func (p *Process) newThread(id trace.ThreadID, name, fname string, co createOpts) *kthread {
	if name == "" {
		name = fmt.Sprintf("T%d", id)
	}
	kt := &kthread{
		ThreadNode: sched.ThreadNode{
			TI:       p.so.AddThread(),
			Prio:     dispatch.Clamp(co.prio),
			Bound:    co.bound,
			BoundCPU: min(co.boundCPU, p.cfg.CPUs-1),
		},
		id:    id,
		name:  name,
		fname: fname,
	}
	p.sc.AddThread(&kt.ThreadNode)
	kt.timer = p.sc.AddTimer(sched.Event{Kind: evTimer, Who: kt.TI})
	p.sc.Start(kt.TI)
	p.threads = append(p.threads, kt)
	p.byID[id] = kt
	info := p.threadInfo(kt)
	if p.cfg.Hook != nil {
		p.cfg.Hook.HandleThread(info)
	}
	if p.tb != nil {
		kt.StartTimeline(p.tb, info, p.now)
	}
	return kt
}

func (p *Process) threadInfo(kt *kthread) trace.ThreadInfo {
	return trace.ThreadInfo{
		ID:       kt.id,
		Name:     kt.name,
		Func:     kt.fname,
		Bound:    kt.Bound,
		BoundCPU: int32(kt.BoundCPU),
		Prio:     int32(kt.Prio),
	}
}

func (p *Process) allocTID() trace.ThreadID {
	id := p.nextTID
	p.nextTID++
	return id
}

// spawn makes a thread body a coroutine. Each library call yields its
// request to the kernel, and the kernel resumes the body (resume) once the
// call completes, so exactly one program body runs at a host instant by
// construction. stop ends a body parked in a call: the call panics with
// panicAbort and the body unwinds.
func (p *Process) spawn(kt *kthread, body func(*Thread)) {
	kt.next, kt.stop = iter.Pull(func(yield func(*request) bool) {
		ut := &Thread{p: p, kt: kt, yield: yield}
		var exitErr error
		func() {
			defer func() {
				switch r := recover(); r {
				case nil, panicExit, panicAbort:
				default:
					exitErr = fmt.Errorf("threadlib: thread T%d (%s) panicked: %v", kt.id, kt.name, r)
				}
			}()
			body(ut)
		}()
		ut.exitCall(exitErr) // after stop, its yield returns at once
	})
}

// resume runs the thread's body until its next library call and installs
// the resulting request. The body is parked again when this returns, so
// the kernel stays single-threaded.
func (p *Process) resume(kt *kthread) {
	p.cur = kt
	req, _ := kt.next()
	p.cur = nil
	if p.cfg.CacheBonus > 0 {
		req.burst = vtime.Duration(float64(req.burst) * (1 - p.cfg.CacheBonus))
	}
	if p.cfg.JitterAmp > 0 {
		req.burst = p.rng.Jitter(req.burst, p.cfg.JitterAmp)
	}
	kt.req = req
	kt.resp = response{}
	kt.Stage = sched.StageCompute
	kt.WorkLeft = req.burst + kt.extraWork
	kt.extraWork = 0
}

// fireProbe emits one instrumentation event and charges its intrusion.
func (p *Process) fireProbe(kt *kthread, ev trace.Event) trace.Event {
	ev.Seq = p.eventSeq
	p.eventSeq++
	ev.Time = p.now
	ev.Thread = kt.id
	if p.cfg.Hook != nil {
		p.cfg.Hook.HandleEvent(ev)
		kt.extraWork += p.cfg.Costs.Probe
	}
	return ev
}

// fireMarker emits a collection marker (start_collect).
func (p *Process) fireMarker(kt *kthread, call trace.Call) {
	p.fireProbe(kt, trace.Event{Class: trace.Before, Call: call})
}

// beforeEvent builds the Before probe for the thread's pending request.
func (p *Process) beforeEvent(kt *kthread) trace.Event {
	req := kt.req
	ev := trace.Event{Class: trace.Before, Call: req.kind, Loc: req.loc}
	if req.obj != nil {
		ev.Object = req.obj.id
	}
	if req.mutex != nil {
		ev.Mutex = req.mutex.id
	}
	if req.kind == trace.CallCondBroadcast && len(kt.held) > 0 {
		ev.Mutex = kt.held[len(kt.held)-1].id
	}
	switch req.kind {
	case trace.CallThrCreate:
		req.reservedTID = p.allocTID()
		ev.Target = req.reservedTID
	case trace.CallThrJoin:
		ev.Target = req.target
	case trace.CallCondTimedWait, trace.CallIO:
		ev.Timeout = req.timeout
	case trace.CallThrSetPrio:
		ev.Prio = int32(req.prio)
	case trace.CallThrSetConcurrency:
		ev.Prio = int32(req.n)
	case trace.CallThrSuspend, trace.CallThrContinue:
		ev.Target = req.target
	}
	return ev
}

// afterEvent builds the After probe completing the thread's request.
func (p *Process) afterEvent(kt *kthread) trace.Event {
	req := kt.req
	ev := trace.Event{Class: trace.After, Call: req.kind, Loc: req.loc}
	if req.obj != nil {
		ev.Object = req.obj.id
	}
	if req.mutex != nil {
		ev.Mutex = req.mutex.id
	}
	if req.kind == trace.CallCondBroadcast && len(kt.held) > 0 {
		ev.Mutex = kt.held[len(kt.held)-1].id
	}
	switch req.kind {
	case trace.CallThrCreate:
		ev.Target = req.reservedTID
	case trace.CallThrJoin:
		ev.Target = kt.resp.tid
	case trace.CallMutexTryLock, trace.CallSemaTryWait, trace.CallCondTimedWait:
		ev.OK = kt.resp.ok
	case trace.CallThrSetPrio:
		ev.Prio = int32(req.prio)
	case trace.CallThrSetConcurrency:
		ev.Prio = int32(req.n)
	case trace.CallIO:
		ev.Timeout = req.timeout
	case trace.CallThrSuspend, trace.CallThrContinue:
		ev.Target = req.target
	}
	return ev
}

// emitPlaced records a completed call in the timeline as a placed event
// spanning Before..now. ev is the completed (After) view of the call; the
// exit path passes the Before event since thr_exit has no After.
func (p *Process) emitPlaced(kt *kthread, ev trace.Event) {
	if p.tb == nil {
		return
	}
	*p.tb.AddEvent(kt.TL) = trace.PlacedEvent{
		Event: ev,
		CPU:   int32(kt.LastCPU),
		Start: kt.beforeEv.Time,
		End:   p.now,
	}
}

// ---- scheduling -----------------------------------------------------------
//
// The event loop and the drive through each call's stages, the queueing,
// dispatch, preemption and time-slice machinery, the CPU accounting with
// its dispatch overheads and timers, and the thread state machine live in
// internal/sched — the same core the Simulator runs, so the recorder and
// the replay engine cannot drift apart. The kengine adapter below is the
// core's call source: it supplies this engine's specifics, live requests,
// probes, resumptions and the budgets.

// kengine adapts Process to sched.Engine.
type kengine Process

// Complete: the thread's call completed; fire its After probe and resume
// the body, which reads kt.resp, until its next request.
func (e *kengine) Complete(_, ti int32) {
	p := (*Process)(e)
	kt := p.threads[ti]
	pushHeld(kt)
	p.emitPlaced(kt, p.fireProbe(kt, p.afterEvent(kt)))
	p.resume(kt)
}

// kengine also adapts Process to syncobj.Engine, receiving the object
// core's grants (and thr_continue's wakes).

// Wake: a wake ends the thread's wait, so the timeout of a signalled
// cond_timedwait no longer applies and its timer is disarmed.
func (e *kengine) Wake(ti, by int32) {
	if kt := e.threads[ti]; kt.req.kind == trace.CallCondTimedWait {
		e.sc.Disarm(kt.timer)
	}
	e.sc.Wake(ti, true)
}

func (e *kengine) Joined(ti, z int32) { e.threads[ti].resp.tid = e.threads[z].id }

func (e *kengine) StartIO(oi, ti int32) {
	p := (*Process)(e)
	service := max(p.threads[ti].req.timeout, 0)
	p.sc.Arm(p.objects[oi].io, p.now.Add(service))
}

// Step checks the virtual-time budget before each event; a moving clock
// resets the progress guard.
func (e *kengine) Step(_ sched.Event, advanced bool) {
	p := (*Process)(e)
	if advanced {
		p.opsNoTime = 0
	}
	if p.cfg.MaxDuration > 0 && p.now > vtime.Time(0).Add(p.cfg.MaxDuration) {
		p.sc.Fail(fmt.Errorf(
			"threadlib: virtual time budget %v exceeded at %v: the program did not terminate (a spinning thread never yields its LWP under the Recorder, paper section 6)",
			p.cfg.MaxDuration, p.now))
	}
}

func (e *kengine) Handle(ev sched.Event) {
	p := (*Process)(e)
	switch ev.Kind {
	case evTimer:
		p.timedWaitExpired(p.threads[ev.Who])
	case evIODone:
		p.so.IODone(ev.Who)
	}
}

// Reach: the thread reached its library call. It fires the Before probe
// and returns the call's cost with the probe costs folded in.
func (e *kengine) Reach(_, ti int32) vtime.Duration {
	p := (*Process)(e)
	kt := p.threads[ti]
	if !p.guardProgress(kt) {
		return 0
	}
	kt.beforeEv = p.fireProbe(kt, p.beforeEvent(kt))
	cost := p.callCost(kt) + kt.extraWork
	kt.extraWork = 0
	return cost
}

// guardProgress counts one call stage at the current instant and fails
// the run, returning false, once too many pass without the clock moving.
func (p *Process) guardProgress(kt *kthread) bool {
	p.opsNoTime++
	if p.opsNoTime > p.cfg.MaxOpsWithoutProgress {
		p.sc.Fail(fmt.Errorf(
			"threadlib: livelock: %d operations without virtual time progress (thread T%d %s at %s); spinning programs cannot run under the Recorder (paper section 6)",
			p.opsNoTime, kt.id, kt.name, kt.req.loc))
		return false
	}
	return true
}

// callCost returns the CPU cost of the thread's pending call, applying the
// bound-thread factors from the paper.
func (p *Process) callCost(kt *kthread) vtime.Duration {
	req := kt.req
	base := p.cfg.Costs.call(req.kind)
	switch {
	case req.kind == trace.CallThrCreate && req.copts.bound:
		return vtime.Duration(float64(base) * p.cfg.Costs.BoundCreateFactor)
	case req.kind.Sync() && kt.Bound:
		return vtime.Duration(float64(base) * p.cfg.Costs.BoundSyncFactor)
	}
	return base
}

// exitThread finalizes a terminating thread: wake joiners, free the LWP,
// account the zombie.
func (p *Process) exitThread(cpu int32, kt *kthread) {
	req := kt.req
	p.emitPlaced(kt, kt.beforeEv)
	kt.To(sched.Zombie, p.now, -1, -1)
	p.so.Exit(kt.TI)
	p.sc.Exit(cpu, kt.TI)
	p.sc.Fail(req.exitErr)
	kt.stop() // the body's coroutine finishes
}
