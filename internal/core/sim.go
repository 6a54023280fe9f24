package core

import (
	"fmt"
	"slices"

	"vppb/internal/dispatch"
	"vppb/internal/sched"
	"vppb/internal/syncobj"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// The simulation state lives in flat arenas: every thread is a slot in a
// slice allocated once in newSim and addressed by its dense index
// (ascending recorded-ID order, the index trace.BuildProfile resolves a
// call record's thread references to), and so is every synchronization
// object in the shared object core (internal/syncobj), whose wait queues
// thread through its own table with intrusive index links. The arenas
// never grow, so pointers into them are stable and double as identities.
// The steady state of the replay loop therefore allocates nothing per
// event: no maps, no queue growth, and pointer-free timer slots,
// registered with the threads and objects, that the garbage collector
// never has to scan.

// nilIdx is the null arena index. Every index field must be initialized
// explicitly: the zero value 0 is a valid slot.
const nilIdx = syncobj.Nil

// sthread replays one recorded thread. Slots live in the sim.threads
// arena.
type sthread struct {
	// The embedded sched.ThreadNode (priority, binding, state, call
	// stage, progress, thr_suspend flags, carrying LWP, timeline span
	// cursor) is shared with the recording kernel; TI is the slot's own
	// index.
	sched.ThreadNode
	info  trace.ThreadInfo
	calls []trace.CallRecord
	idx   int

	prioPinned bool

	// timer and wake are the thread's timer slots in the scheduler core:
	// a timed-out wait's expiry and a delayed wake.
	timer, wake int32

	// joinedID is the thread the current thr_join reaped.
	joinedID trace.ThreadID

	// timed-wait outcome delivered at the After event
	okResult bool

	// beforeTime is when the current record's Before event fired; beforeEv
	// holds the full event only for thr_exit records (the one case where
	// placement reads the Before event back, in exitThread).
	beforeTime vtime.Time
	beforeEv   trace.Event
}

func (t *sthread) id() trace.ThreadID { return t.info.ID }

// rec returns the thread's current call record, or nil when exhausted.
func (t *sthread) rec() *trace.CallRecord {
	if t.idx >= len(t.calls) {
		return nil
	}
	return &t.calls[t.idx]
}

// The engine's own event kinds follow the scheduler core's burst and
// slice kinds; an event's Who is the arena index of a thread for evTimer
// and evWake and of an object for evIODone.
const (
	evTimer  = sched.EvEngine + iota // cond_timedwait delay expiry
	evWake                           // delayed (cross-CPU) wake delivery
	evIODone                         // device completes its current request
)

// sim is one simulation run.
type sim struct {
	m    Machine
	prof *trace.Profile
	sc   *sched.Core

	now vtime.Time

	threads []sthread // arena, ascending recorded-ID order
	so      *syncobj.Core
	mainIdx int32
	// io is each object's I/O-completion timer slot, by arena index. A
	// replayed io record may name an object of any kind (the replay does
	// not check kinds), so every object has one.
	io []int32

	// pending holds the barrier-fix broadcasters, oldest first.
	pending []pendingBroadcast

	tb       *trace.TimelineBuilder
	eventSeq int64

	// stuck counts the events handled since the clock last moved, and
	// stuckKinds the same by kind (the livelock window).
	stuck      int
	stuckKinds [len(sevKindNames)]int64
}

// newSim assembles one simulation run over a shared profile. The profile
// is read-only from here on: the run's mutable state (threads, objects,
// queues) is built fresh, so concurrent runs over one profile never touch
// shared memory.
func newSim(prof *trace.Profile, m Machine) (*sim, error) {
	pol, err := sched.New(m.Policy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if m.CPUs > MaxCPUs {
		return nil, fmt.Errorf("core: %d CPUs exceeds the limit of %d", m.CPUs, MaxCPUs)
	}
	if m.LWPs > MaxCPUs {
		return nil, fmt.Errorf("core: %d LWPs exceeds the limit of %d", m.LWPs, MaxCPUs)
	}
	ids := prof.ThreadIDs()
	mainIdx, ok := slices.BinarySearch(ids, trace.MainThread)
	if !ok {
		return nil, fmt.Errorf("core: recording has no main thread")
	}
	s := &sim{
		m:       m,
		prof:    prof,
		threads: make([]sthread, len(ids)),
		mainIdx: int32(mainIdx),
		io:      make([]int32, len(prof.Objects)),
	}
	if !m.DiscardTimeline {
		s.tb = trace.NewTimelineBuilder()
	}
	nThreads := len(ids)
	s.sc = sched.NewCore(pol, (*sengine)(s), &s.now, sched.Config{CPUs: m.CPUs, LWPs: m.LWPs, NoPreemption: m.NoPreemption, Threads: nThreads})
	s.so = syncobj.New((*sengine)(s), nThreads, len(prof.Objects))
	for _, oi := range prof.Objects {
		o := s.so.AddObject(oi.Kind, int(oi.InitCount))
		s.io[o] = s.sc.AddTimer(sched.Event{Kind: evIODone, Who: o})
	}
	// Instantiate every thread appearing in the profile, in the profile's
	// precomputed ascending ID order. Threads other than main stay dormant
	// until their recorded thr_create replays.
	for i, id := range ids {
		tp := prof.Threads[id]
		t := &s.threads[i]
		s.so.AddThread()
		*t = sthread{
			ThreadNode: sched.ThreadNode{
				TI:       int32(i),
				Prio:     dispatch.Clamp(int(tp.Info.Prio)),
				Bound:    tp.Info.Bound,
				BoundCPU: int(tp.Info.BoundCPU),
			},
			info:  tp.Info,
			calls: tp.Calls,
			timer: s.sc.AddTimer(sched.Event{Kind: evTimer, Who: int32(i)}),
			wake:  s.sc.AddTimer(sched.Event{Kind: evWake, Who: int32(i)}),
		}
		s.applyOverride(t)
		s.sc.AddThread(&t.ThreadNode)
	}
	return s, nil
}

func (s *sim) applyOverride(t *sthread) {
	ov, ok := s.m.Overrides[t.info.ID]
	if !ok {
		return
	}
	switch ov.Binding {
	case BindUnbound:
		t.Bound = false
		t.BoundCPU = -1
	case BindLWP:
		t.Bound = true
		t.BoundCPU = -1
	case BindCPU:
		t.Bound = true
		t.BoundCPU = ov.CPU
		if t.BoundCPU >= s.m.CPUs || t.BoundCPU < 0 {
			t.BoundCPU = s.m.CPUs - 1
		}
	}
	if ov.Priority != nil {
		t.Prio = dispatch.Clamp(*ov.Priority)
		t.prioPinned = true
	}
}

// run replays the profile to completion in the scheduler core's event
// loop, under the guardrail budgets (Step): a corrupted or repaired log
// must terminate with a structured diagnostic, never hang.
func (s *sim) run() (*Result, error) {
	s.startThread(&s.threads[s.mainIdx])
	if err := s.sc.Run(); err != nil {
		return nil, err
	}
	res := &Result{
		Machine:      s.m,
		Duration:     s.now.Sub(0),
		PerThreadCPU: make(map[trace.ThreadID]vtime.Duration, len(s.threads)),
		Events:       s.eventSeq,
		PeakRunning:  s.sc.PeakRunning(),
		Contended:    s.sc.Contended(),
	}
	for i := range s.threads {
		t := &s.threads[i]
		res.PerThreadCPU[t.id()] = t.CPUTime
	}
	if s.tb != nil {
		res.Timeline = s.tb.Build(s.prof.Header.Program, s.m.CPUs, s.sc.LWPs(), res.Duration)
		res.Timeline.Objects = append([]trace.ObjectInfo(nil), s.prof.Objects...)
	}
	return res, nil
}

// startThread activates a thread at the current time.
func (s *sim) startThread(t *sthread) {
	if t.State != sched.NotStarted {
		s.sc.Fail(fmt.Errorf("core: thread T%d started twice", t.id()))
		return
	}
	s.sc.Start(t.TI)
	if s.tb != nil {
		t.StartTimeline(s.tb, t.info, s.now)
		// The thread places exactly one event per call record plus at most
		// one exit event. Span counts come out below the call count on
		// real traces (adjacent same-state spans coalesce), so half the
		// call count covers most threads and the rest grow amortized.
		s.tb.Reserve(t.TL, len(t.calls)/2+8, len(t.calls)+1)
	}
	if r := t.rec(); r != nil {
		t.WorkLeft = r.CPUBefore
	}
	// A thread with no recorded events exits as soon as it runs.
	s.wake(t, -1, false)
}

// fillEvent synthesizes the simulated probe event for the thread's
// current call record directly into dst, avoiding a by-value trip through
// the (large) trace.Event; the recorded IDs and source location come from
// the record's site. The event-sequence increment it performs must
// happen exactly once per simulated probe event, timeline or not — it
// feeds Result.Events and the event budget.
func (s *sim) fillEvent(dst *trace.Event, t *sthread, class trace.EventClass) {
	r := t.rec()
	site := s.prof.Site(r)
	*dst = trace.Event{
		Seq:    s.eventSeq,
		Time:   s.now,
		Thread: t.id(),
		Class:  class,
		Call:   r.Call,
		Object: site.Object,
		Loc:    site.Loc,
	}
	s.eventSeq++
	switch r.Call {
	case trace.CallThrCreate:
		dst.Target = site.Target
	case trace.CallThrJoin:
		if class == trace.Before {
			dst.Target = site.Target
		} else {
			dst.Target = t.joinedID
		}
	case trace.CallCondTimedWait:
		dst.Timeout = r.Timeout
		dst.OK = t.okResult
	case trace.CallMutexTryLock, trace.CallSemaTryWait:
		dst.OK = r.OK
	case trace.CallThrSetPrio, trace.CallThrSetConcurrency:
		dst.Prio = r.Prio
	}
}

// placeAfter emits the After event and the placed-event record for the
// thread's completed call, filled in place in the timeline's slot.
func (s *sim) placeAfter(t *sthread) {
	if s.tb == nil {
		s.eventSeq++
		return
	}
	pe := s.tb.AddEvent(t.TL)
	s.fillEvent(&pe.Event, t, trace.After)
	pe.CPU = int32(t.LastCPU)
	pe.Start = t.beforeTime
	pe.End = pe.Event.Time
}

// ---- scheduling -------------------------------------------------------------

// wake makes a thread runnable. fromCPU identifies where the waking event
// happened; a cross-CPU wake is delayed by the machine's communication
// delay. boost applies the TS sleep-return priority lift.
// A suspended thread is never delayed: sched.Core.Wake keeps its wake for
// thr_continue.
func (s *sim) wake(t *sthread, fromCPU int, boost bool) {
	if s.m.CommDelay > 0 && fromCPU >= 0 && t.LastCPU >= 0 && fromCPU != t.LastCPU && !t.Suspended {
		t.To(sched.WakePending, s.now, -1, -1)
		s.sc.Arm(t.wake, s.now.Add(s.m.CommDelay))
		return
	}
	s.sc.Wake(t.TI, boost)
}

// The event loop and the drive through each call's stages, the queueing,
// dispatch, preemption and time-slice machinery, the CPU accounting and
// its timers, and the thread state machine live in internal/sched — the
// same core the recording kernel runs, so the Simulator cannot drift from
// the machine the trace was recorded on. The sengine adapter below is the
// core's call source: it supplies this engine's specifics, record replay,
// simulated probes and the guardrail budgets.

// sengine adapts sim to sched.Engine.
type sengine sim

// Complete: the thread's call completed; emit the After event and move
// the thread to its next record. A recording exhausted without thr_exit
// ends the thread (collection markers end this way for main).
func (e *sengine) Complete(cpu, ti int32) {
	s := (*sim)(e)
	t := &s.threads[ti]
	s.placeAfter(t)
	t.idx++
	t.Stage = sched.StageCompute
	if r := t.rec(); r != nil {
		t.WorkLeft = r.CPUBefore
		return
	}
	s.exitThread(cpu, t)
}

// sengine also adapts sim to syncobj.Engine, receiving the object core's
// grants.

// Wake: a wake granted by another thread's call (or thr_continue) is
// cross-CPU when that thread last ran on another CPU (the
// communication-delay rule).
func (e *sengine) Wake(ti, by int32) {
	s := (*sim)(e)
	from := -1
	if by != nilIdx {
		from = s.threads[by].LastCPU
	}
	s.wake(&s.threads[ti], from, true)
}

func (e *sengine) Joined(ti, z int32) { e.threads[ti].joinedID = e.threads[z].id() }

// StartIO: a queued requester is still parked on its I/O record, so its
// recorded service time is re-read rather than stored.
func (e *sengine) StartIO(oi, ti int32) {
	s := (*sim)(e)
	service := max(s.threads[ti].rec().Timeout, 0)
	s.sc.Arm(s.io[oi], s.now.Add(service))
}

// Step checks the budgets and the livelock window before each event.
func (e *sengine) Step(ev sched.Event, advanced bool) {
	s := (*sim)(e)
	if advanced {
		s.stuck = 0
		s.stuckKinds = [len(sevKindNames)]int64{}
	}
	if s.m.MaxVirtualTime > 0 && s.now.Sub(0) > s.m.MaxVirtualTime {
		s.sc.Fail(&BudgetError{Kind: "virtual-time", Limit: int64(s.m.MaxVirtualTime), At: s.now, Events: s.eventSeq})
		return
	}
	if s.m.MaxSimEvents > 0 && s.eventSeq > s.m.MaxSimEvents {
		s.sc.Fail(&BudgetError{Kind: "events", Limit: s.m.MaxSimEvents, At: s.now, Events: s.eventSeq})
		return
	}
	s.stuck++
	if int(ev.Kind) < len(s.stuckKinds) {
		s.stuckKinds[ev.Kind]++
	}
	if s.m.LivelockWindow > 0 && s.stuck > s.m.LivelockWindow {
		s.sc.Fail(s.livelockError(s.stuckKinds, s.m.LivelockWindow))
	}
}

func (e *sengine) Handle(ev sched.Event) {
	s := (*sim)(e)
	switch ev.Kind {
	case evTimer:
		// A timed-out wait replayed as a delay ends: re-acquire the mutex.
		t := &s.threads[ev.Who]
		s.so.Reacquire(t.TI, t.rec().Mutex)
	case evWake:
		// A delivered wake always finds its thread wake-pending: a
		// suspended thread is never made wake-pending, and thr_suspend
		// of a wake-pending thread disarms its wake.
		s.sc.Wake(ev.Who, true)
	case evIODone:
		s.so.IODone(ev.Who)
	}
}

// Reach fires the Before event of the thread's current record and returns
// the call's cost. A thread whose recording is exhausted exits instead.
func (e *sengine) Reach(cpu, ti int32) vtime.Duration {
	s := (*sim)(e)
	t := &s.threads[ti]
	r := t.rec()
	if r == nil {
		s.exitThread(cpu, t)
		return 0
	}
	t.beforeTime = s.now
	if s.tb != nil && r.Call == trace.CallThrExit {
		s.fillEvent(&t.beforeEv, t, trace.Before)
	} else {
		// The Before event feeds placement only: its time (saved above)
		// bounds the placed span, and nothing else reads it except for
		// thr_exit. The sequence number is still consumed.
		s.eventSeq++
	}
	return s.callCost(t, r)
}

// callCost scales the recorded call cost when an override changes the
// caller's (or created thread's) binding relative to the recording.
func (s *sim) callCost(t *sthread, r *trace.CallRecord) vtime.Duration {
	cost := r.CallCPU
	switch {
	case r.Call == trace.CallThrCreate:
		if r.Target == nilIdx {
			return cost
		}
		child := &s.threads[r.Target]
		recBound := child.info.Bound
		effBound := child.Bound
		if recBound == effBound {
			return cost
		}
		if effBound {
			return vtime.Duration(float64(cost) * s.m.BoundCreateFactor)
		}
		return vtime.Duration(float64(cost) / s.m.BoundCreateFactor)
	case r.Call.Sync():
		recBound := t.info.Bound
		effBound := t.Bound
		if recBound == effBound {
			return cost
		}
		if effBound {
			return vtime.Duration(float64(cost) * s.m.BoundSyncFactor)
		}
		return vtime.Duration(float64(cost) / s.m.BoundSyncFactor)
	}
	return cost
}

// exitThread finalizes a simulated thread.
func (s *sim) exitThread(cpu int32, t *sthread) {
	// Place the exit event if the thread ended on a thr_exit record.
	if r := t.rec(); r != nil && r.Call == trace.CallThrExit && s.tb != nil {
		*s.tb.AddEvent(t.TL) = trace.PlacedEvent{
			Event: t.beforeEv,
			CPU:   int32(t.LastCPU),
			Start: t.beforeEv.Time,
			End:   s.now,
		}
	}
	t.To(sched.Zombie, s.now, -1, -1)
	s.so.Exit(t.TI)
	s.sc.Exit(cpu, t.TI)
}
