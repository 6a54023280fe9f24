package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// guardCall is one hand-written call: the replayed fields of a call
// record, with the recorded IDs that guardProfile resolves to its dense
// indices and writes to its site.
type guardCall struct {
	CPUBefore   vtime.Duration
	Call        trace.Call
	Object      trace.ObjectID
	MutexObject trace.ObjectID
	Target      trace.ThreadID
}

// guardProfile hand-builds a behaviour profile. A recorded log can never
// deadlock (the recording finished), so the pathological schedules these
// tests need are constructed directly. It leaves Profile.IDs unset, as a
// hand-built profile may.
func guardProfile(objects []trace.ObjectInfo, threads map[trace.ThreadID][]guardCall) *trace.Profile {
	p := &trace.Profile{
		Header:  trace.Header{Program: "guard", CPUs: 1, LWPs: 1, Start: 0, End: vtime.Time(vtime.Second)},
		Objects: objects,
		Threads: make(map[trace.ThreadID]*trace.ThreadProfile),
	}
	ids := make([]trace.ThreadID, 0, len(threads))
	for id := range threads {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	object := func(id trace.ObjectID) int32 {
		return int32(slices.IndexFunc(objects, func(o trace.ObjectInfo) bool { return o.ID == id }))
	}
	thread := func(id trace.ThreadID) int32 {
		if i, ok := slices.BinarySearch(ids, id); ok {
			return int32(i)
		}
		return -1
	}
	for _, id := range ids {
		info := trace.ThreadInfo{ID: id, Name: "t", Func: "t", BoundCPU: -1, Prio: 29}
		if id == trace.MainThread {
			info.Name = "main"
		}
		calls := make([]trace.CallRecord, len(threads[id]))
		for i, c := range threads[id] {
			calls[i] = trace.CallRecord{
				CPUBefore: c.CPUBefore,
				Call:      c.Call,
				Obj:       object(c.Object),
				Mutex:     object(c.MutexObject),
				Target:    thread(c.Target),
				Site:      int32(len(p.Sites)),
			}
			p.Sites = append(p.Sites, trace.CallSite{Object: c.Object, Target: c.Target})
		}
		p.Threads[id] = &trace.ThreadProfile{Info: info, Calls: calls}
	}
	return p
}

// TestDeadlockWaitForGraph builds the classic two-thread lock cycle:
// T4 holds A and wants B, T5 holds B and wants A, main joins T4.
func TestDeadlockWaitForGraph(t *testing.T) {
	const (
		mutexA trace.ObjectID = 1
		mutexB trace.ObjectID = 2
	)
	prof := guardProfile(
		[]trace.ObjectInfo{
			{ID: mutexA, Kind: trace.ObjMutex, Name: "A"},
			{ID: mutexB, Kind: trace.ObjMutex, Name: "B"},
		},
		map[trace.ThreadID][]guardCall{
			1: {
				{Call: trace.CallThrCreate, Target: 4},
				{Call: trace.CallThrCreate, Target: 5},
				{Call: trace.CallThrJoin, Target: 4},
			},
			4: {
				{Call: trace.CallMutexLock, Object: mutexA},
				{CPUBefore: 5 * vtime.Millisecond, Call: trace.CallMutexLock, Object: mutexB},
			},
			5: {
				{CPUBefore: 1 * vtime.Millisecond, Call: trace.CallMutexLock, Object: mutexB},
				{CPUBefore: 5 * vtime.Millisecond, Call: trace.CallMutexLock, Object: mutexA},
			},
		},
	)
	_, err := SimulateProfile(prof, Machine{CPUs: 2})
	if err == nil {
		t.Fatal("lock cycle did not deadlock")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T, want *DeadlockError: %v", err, err)
	}
	if len(de.Edges) != 3 {
		t.Fatalf("wait-for graph has %d edges, want 3:\n%v", len(de.Edges), err)
	}
	text := err.Error()
	for _, want := range []string{
		"wait-for graph:",
		`T4 (sleeping in mutex_lock) -> mutex "B" held by T5`,
		`T5 (sleeping in mutex_lock) -> mutex "A" held by T4`,
		"T1 (sleeping in thr_join) -> thread T4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("diagnostic lacks %q:\n%s", want, text)
		}
	}
}

// TestDeadlockLostWakeup signals a condition before anyone waits on it;
// the later cond_wait then sleeps forever and the diagnostic must show a
// holder-less condition edge.
func TestDeadlockLostWakeup(t *testing.T) {
	const (
		guard trace.ObjectID = 1
		empty trace.ObjectID = 2
	)
	prof := guardProfile(
		[]trace.ObjectInfo{
			{ID: guard, Kind: trace.ObjMutex, Name: "guard"},
			{ID: empty, Kind: trace.ObjCond, Name: "empty"},
		},
		map[trace.ThreadID][]guardCall{
			1: {
				{Call: trace.CallThrCreate, Target: 4},
				{Call: trace.CallThrCreate, Target: 5},
				{Call: trace.CallThrJoin, Target: 4},
			},
			// The signaller fires immediately, before the waiter arrives.
			5: {
				{Call: trace.CallCondSignal, Object: empty},
			},
			// The waiter computes first and misses the wakeup.
			4: {
				{CPUBefore: 5 * vtime.Millisecond, Call: trace.CallMutexLock, Object: guard},
				{Call: trace.CallCondWait, Object: empty, MutexObject: guard},
			},
		},
	)
	_, err := SimulateProfile(prof, Machine{CPUs: 2})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T, want *DeadlockError: %v", err, err)
	}
	text := err.Error()
	if !strings.Contains(text, `T4 (sleeping in cond_wait) -> cond "empty" (no holder)`) {
		t.Errorf("diagnostic lacks the holder-less condition edge:\n%s", text)
	}
}

// TestSuspendedBurstLeavesNoTimer replays what the recorder logs of a
// program that deadlocks: main creates T4, which computes 1 s, computes
// 20 ms itself, suspends T4 and waits on a semaphore no one posts. The
// suspended thread's burst timer goes with it, so within a 500 ms budget
// the replay reports the deadlock at 20 ms, when main blocked, not a
// budget error at the 1 s the burst would have ended.
func TestSuspendedBurstLeavesNoTimer(t *testing.T) {
	const never trace.ObjectID = 1
	prof := guardProfile(
		[]trace.ObjectInfo{{ID: never, Kind: trace.ObjSema, Name: "never"}},
		map[trace.ThreadID][]guardCall{
			1: {
				{Call: trace.CallThrCreate, Target: 4},
				{CPUBefore: 20 * vtime.Millisecond, Call: trace.CallThrSuspend, Target: 4},
				{Call: trace.CallSemaWait, Object: never},
			},
			4: {
				{CPUBefore: vtime.Second, Call: trace.CallThrExit},
			},
		},
	)
	_, err := SimulateProfile(prof, Machine{CPUs: 2, MaxVirtualTime: 500 * vtime.Millisecond})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T, want *DeadlockError: %v", err, err)
	}
	if want := vtime.Time(0).Add(20 * vtime.Millisecond); de.At != want {
		t.Fatalf("deadlock at %v, want %v", de.At, want)
	}
	// T4 was stopped in its burst, before the thr_exit it never reached.
	want := "core: simulation deadlock at 0.02; wait-for graph:\n" +
		"  T1 (sleeping in sema_wait) -> sema \"never\" (no holder)\n" +
		"  T4 (sleeping before thr_exit) -> thr_continue (no holder)"
	if got := err.Error(); got != want {
		t.Errorf("deadlock report:\n%s\nwant:\n%s", got, want)
	}
}

// TestLivelockWindow replays a thread of zero-cost yields: virtual time
// never advances, so the dispatch watchdog must fire.
func TestLivelockWindow(t *testing.T) {
	yields := make([]guardCall, 50)
	for i := range yields {
		yields[i] = guardCall{Call: trace.CallThrYield}
	}
	prof := guardProfile(nil, map[trace.ThreadID][]guardCall{1: yields})
	_, err := SimulateProfile(prof, Machine{CPUs: 1, LivelockWindow: 10})
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("error is %T, want *LivelockError: %v", err, err)
	}
	if le.Window != 10 {
		t.Fatalf("Window = %d, want 10", le.Window)
	}
	text := err.Error()
	for _, want := range []string{"virtual time stuck", "burst=", "threads:"} {
		if !strings.Contains(text, want) {
			t.Errorf("diagnostic lacks %q:\n%s", want, text)
		}
	}
}

// TestLivelockDisabled verifies that a negative window turns the watchdog
// off and the same yield storm completes normally.
func TestLivelockDisabled(t *testing.T) {
	yields := make([]guardCall, 50)
	for i := range yields {
		yields[i] = guardCall{Call: trace.CallThrYield}
	}
	prof := guardProfile(nil, map[trace.ThreadID][]guardCall{1: yields})
	if _, err := SimulateProfile(prof, Machine{CPUs: 1, LivelockWindow: -1}); err != nil {
		t.Fatalf("watchdog disabled but simulation failed: %v", err)
	}
}

func TestEventBudget(t *testing.T) {
	log := record(t, fig2)
	_, err := Simulate(log, Machine{CPUs: 2, MaxSimEvents: 3})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BudgetError: %v", err, err)
	}
	if be.Kind != "events" || be.Limit != 3 {
		t.Fatalf("BudgetError = %+v", be)
	}
	if !strings.Contains(err.Error(), "3-event budget") {
		t.Fatalf("diagnostic: %v", err)
	}
}

func TestVirtualTimeBudget(t *testing.T) {
	log := record(t, fig2)
	_, err := Simulate(log, Machine{CPUs: 2, MaxVirtualTime: vtime.Millisecond})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BudgetError: %v", err, err)
	}
	if be.Kind != "virtual-time" {
		t.Fatalf("Kind = %q, want virtual-time", be.Kind)
	}
	if !strings.Contains(err.Error(), "virtual-time budget") {
		t.Fatalf("diagnostic: %v", err)
	}
}

// TestBudgetsOffByDefault makes sure a normal prediction is unaffected by
// the guardrail defaults.
func TestBudgetsOffByDefault(t *testing.T) {
	log := record(t, fig2)
	mustSim(t, log, Machine{CPUs: 2})
}

// TestStaleDelayedWake: with a communication delay, main posts the
// semaphore T4 sleeps on from another CPU at 5 ms, so T4's wake falls due
// at 7 ms; main suspends T4 at once and continues it at 6 ms, which
// delays the wake again, to 8 ms. The first wake must not run T4: it runs
// its 10 ms burst from 8 ms, and main's join ends the run at 18 ms.
func TestStaleDelayedWake(t *testing.T) {
	const gate trace.ObjectID = 1
	prof := guardProfile(
		[]trace.ObjectInfo{{ID: gate, Kind: trace.ObjSema, Name: "gate"}},
		map[trace.ThreadID][]guardCall{
			1: {
				{Call: trace.CallThrCreate, Target: 4},
				{CPUBefore: 5 * ms, Call: trace.CallSemaPost, Object: gate},
				{Call: trace.CallThrSuspend, Target: 4},
				{CPUBefore: 1 * ms, Call: trace.CallThrContinue, Target: 4},
				{Call: trace.CallThrJoin, Target: 4},
			},
			4: {
				{Call: trace.CallSemaWait, Object: gate},
				{CPUBefore: 10 * ms, Call: trace.CallThrExit},
			},
		},
	)
	res, err := SimulateProfile(prof, Machine{CPUs: 2, CommDelay: 2 * ms})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 18*ms {
		t.Fatalf("duration %v, want 18ms: T4 woken at 8 ms, after its continue's delay", res.Duration)
	}
}

// TestSuspendedWakeCancelled: with a communication delay, main posts the
// semaphore T4 sleeps on from another CPU at 5 ms, so T4's wake falls due
// at 7 ms; main suspends T4 at once and waits on a semaphore no one
// posts. The suspend cancels the delayed wake, so the deadlock is
// reported at 5 ms, when main blocked, not at the cancelled wake's 7 ms.
func TestSuspendedWakeCancelled(t *testing.T) {
	const (
		gate  trace.ObjectID = 1
		never trace.ObjectID = 2
	)
	prof := guardProfile(
		[]trace.ObjectInfo{
			{ID: gate, Kind: trace.ObjSema, Name: "gate"},
			{ID: never, Kind: trace.ObjSema, Name: "never"},
		},
		map[trace.ThreadID][]guardCall{
			1: {
				{Call: trace.CallThrCreate, Target: 4},
				{CPUBefore: 5 * ms, Call: trace.CallSemaPost, Object: gate},
				{Call: trace.CallThrSuspend, Target: 4},
				{Call: trace.CallSemaWait, Object: never},
			},
			4: {
				{Call: trace.CallSemaWait, Object: gate},
				{CPUBefore: 10 * ms, Call: trace.CallThrExit},
			},
		},
	)
	_, err := SimulateProfile(prof, Machine{CPUs: 2, CommDelay: 2 * ms})
	want := `core: simulation deadlock at 0.005; wait-for graph:
  T1 (sleeping in sema_wait) -> sema "never" (no holder)
  T4 (sleeping in sema_wait) -> thr_continue (no holder)`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want\n%s", err, want)
	}
}
