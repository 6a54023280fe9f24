// Package hb performs happens-before analysis over a recorded trace.Log.
//
// Where the Simulator (internal/core) replays a recording on one concrete
// machine, this package extracts the machine-independent concurrency
// structure of the recording itself: a vector clock per event derived from
// the synchronization semantics (mutex/rwlock hand-off, semaphores, condition
// signal/broadcast, thread create/join/exit, FIFO devices), the critical
// path through the resulting happens-before DAG (the longest chain of
// compute bursts plus mandatory blocking, which no processor count can
// shorten), per-object serialization scores (the fraction of the critical
// path attributed to each synchronization object), and a lock-order graph
// whose cycles flag potential deadlocks the recorded run happened not to
// hit.
//
// A vector clock has one component per thread, so the clocks cost
// O(events × threads). Analyze does not build them: nothing it reports
// reads them, and it runs in O(events). HappensBefore, Concurrent and
// Clocks build them on first use, by the same walk with clocks kept.
//
// The edge rules follow the trace-based vector-clock treatment of Sulzmann
// and Stadtmüller ("Trace-Based Run-time Analysis of Message-Passing Go
// Programs"); the lock-order cycle detection follows the classic lockset /
// goodlock discipline as applied to Go by Taheri and Gopalakrishnan
// ("Automated Dynamic Concurrency Analysis for Go").
//
// Two kinds of ordering are distinguished. The vector clocks describe the
// happens-before relation of the *recorded run*: every synchronization
// hand-off the uni-processor schedule exhibited is an edge, including which
// thread happened to get a mutex next. The critical path, by contrast, must
// not depend on such schedule accidents (on a multiprocessor the lock could
// be granted in any order), so its longest-path computation uses only the
// *mandatory* edges — program order, create/join/exit, suspend/continue,
// semaphore post → wait and condition signal/broadcast → wake — and folds
// lock serialization in as per-object serial demand: the summed exclusive
// hold (or device service) time of one object cannot overlap itself under
// any schedule, so
//
//	CritPath = max(longest mandatory chain, max over objects of serial demand)
//
// and Work / CritPath is the recording's speed-up bound (a two-term bound
// in the style of Brent's theorem plus a bottleneck-resource term).
//
// The chain term is not a lower bound on every replay. It follows the
// recorded pairing of semaphore posts with waits and of condition signals
// with wakes. When one semaphore has several posters, or the last thread
// to reach a condition barrier varies, which post or signal wakes a given
// waiter is itself a schedule accident. Replays of the random programs in
// internal/core's differential tests (seeds 1-300 under ts, fifo and rr
// on 1, 2, 3, 4 and 8 CPUs) finished below max(CritPath, Work/c) in 962
// of 4500 runs, each time because of the chain. The serial-demand term
// holds for every replay, so a caller that needs a sound bound, such as
// the optimize sweep's pruning, uses max(SerialDemand, Work/c).
package hb

import (
	"errors"
	"fmt"
	"sync"

	"vppb/internal/source"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// Analysis is the result of happens-before analysis of one recording.
type Analysis struct {
	// Log is the analyzed recording. The vector clocks are derived from
	// it on first use, so it must not change after Analyze.
	Log *trace.Log

	// Work is the total compute time of the recording: the sum over events
	// of the attributed CPU burst (probe cost deducted), i.e. the
	// uni-processor execution time of the unmonitored program.
	Work vtime.Duration
	// Chain is the longest path of compute bursts plus mandatory blocking
	// (I/O service, expired timed waits) through the mandatory
	// happens-before DAG (program order, create/join/exit,
	// suspend/continue, sema post→wait, cond signal→wake).
	Chain vtime.Duration
	// SerialDemand is the largest per-object serial demand: the summed
	// exclusive hold (or device service) time of the busiest object. No
	// schedule overlaps one object's holds with each other, so no replay
	// on any machine finishes sooner.
	SerialDemand vtime.Duration
	// CritPath is max(Chain, SerialDemand), the recording's speed-up
	// bound (see the package comment for why Chain is not a bound on
	// every replay).
	CritPath vtime.Duration
	// Dominant is the object whose serial demand sets CritPath, or 0 when
	// the mandatory dependency chain dominates instead.
	Dominant trace.ObjectID
	// Path is the critical path itself, in chronological order: the
	// longest mandatory chain when it dominates, or the serialized
	// operations of the dominant object.
	Path []PathNode
	// Sites aggregates the critical path by source location, descending by
	// time — the "top-k path segments" a developer should look at first.
	Sites []SiteCost
	// Scores ranks synchronization objects by the fraction of the critical
	// path attributed to them, descending.
	Scores []ObjectScore

	// LockOrder is the lock-order graph with cycle detection.
	LockOrder *LockOrderGraph

	// threadIdx maps ThreadID to the dense vector-clock component index.
	threadIdx map[trace.ThreadID]int

	// clocks holds one vector clock per event, built by Clocks.
	clocksOnce sync.Once
	clocks     []VectorClock
}

// PathNode is one event on the critical path.
type PathNode struct {
	// Event indexes Log.Events.
	Event int
	// Thread generated the event; Record is the per-thread call-record
	// ordinal (the index of the corresponding trace.CallRecord and of the
	// simulator's placed event), which the viz overlay keys on.
	Thread trace.ThreadID
	Record int
	// CPU is the compute burst attributed to the event; Wait is mandatory
	// latency (I/O service time, expired cond_timedwait timeout).
	CPU  vtime.Duration
	Wait vtime.Duration
	// Object is the synchronization object the node's time is attributed
	// to (the operated-on object for call completions, the innermost
	// exclusively-held lock for compute bursts), 0 if none.
	Object trace.ObjectID
	Call   trace.Call
	Class  trace.EventClass
	Loc    source.Loc
}

// Time is the node's total weight on the path.
func (n PathNode) Time() vtime.Duration { return n.CPU + n.Wait }

// SiteCost is the critical-path time spent at one source location.
type SiteCost struct {
	Loc   source.Loc
	Time  vtime.Duration
	Count int
}

// ObjectScore is one object's share of the critical path.
type ObjectScore struct {
	ID   trace.ObjectID
	Name string
	Kind trace.ObjectKind
	// Time is the critical-path time attributed to the object; Score is
	// Time divided by the critical path length.
	Time  vtime.Duration
	Score float64
}

// heldLock is one entry of a thread's lock stack.
type heldLock struct {
	obj       trace.ObjectID
	exclusive bool
	acqLoc    source.Loc
}

// threadState is the per-thread walker state.
type threadState struct {
	idx     int
	vc      VectorClock
	dist    int64 // longest-path distance to the thread's latest event, µs
	lastEv  int   // index of the thread's latest event, -1 if none
	held    []heldLock
	records int // Before events seen so far = next call-record ordinal
}

// edgeSource is a potential cross-thread predecessor: the clock (nil
// unless clocks are kept), distance and event index of a
// release/post/signal/exit the current event may synchronize with.
type edgeSource struct {
	vc   VectorClock
	dist int64
	ev   int
	ok   bool
}

// objState accumulates per-object edge sources.
type objState struct {
	// rel is the latest release clock: mutex/rwlock unlock, sema post,
	// device completion, or the implicit mutex release of a cond wait.
	rel edgeSource
	// sig is the latest cond_signal / cond_broadcast clock.
	sig edgeSource
}

// Analyze computes the happens-before analysis of a recording. The log must
// pass Validate and, like trace.BuildProfile, must come from a 1-CPU/1-LWP
// monitored run (the gap between consecutive events is only attributable as
// CPU time under that restriction).
func Analyze(l *trace.Log) (*Analysis, error) {
	if l == nil {
		return nil, errors.New("hb: nil log")
	}
	if l.Header.CPUs != 1 || l.Header.LWPs != 1 {
		return nil, fmt.Errorf("hb: analysis requires a 1-CPU/1-LWP recording, log has %d CPUs, %d LWPs",
			l.Header.CPUs, l.Header.LWPs)
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("hb: %w", err)
	}
	return analyze(l, false), nil
}

// analyze walks a validated log once. Only a walk with clocks set keeps
// one vector clock per event: that costs O(events × threads), and none of
// the bounds, the path, the scores or the lock-order graph reads them.
func analyze(l *trace.Log, clocks bool) *Analysis {
	// Dense thread indices, in order of first appearance.
	threadIdx := make(map[trace.ThreadID]int)
	for _, ev := range l.Events {
		if _, ok := threadIdx[ev.Thread]; !ok {
			threadIdx[ev.Thread] = len(threadIdx)
		}
	}
	numT := len(threadIdx)

	a := &Analysis{Log: l, threadIdx: threadIdx}
	if clocks {
		a.clocks = make([]VectorClock, len(l.Events))
	}

	states := make(map[trace.ThreadID]*threadState, numT)
	state := func(id trace.ThreadID) *threadState {
		t := states[id]
		if t == nil {
			t = &threadState{idx: threadIdx[id], lastEv: -1}
			if clocks {
				t.vc = make(VectorClock, numT)
			}
			states[id] = t
		}
		return t
	}
	objs := make(map[trace.ObjectID]*objState)
	obj := func(id trace.ObjectID) *objState {
		o := objs[id]
		if o == nil {
			o = &objState{}
			objs[id] = o
		}
		return o
	}
	spawned := make(map[trace.ThreadID]edgeSource) // thr_create → child start
	exited := make(map[trace.ThreadID]edgeSource)  // thr_exit → join return
	resumed := make(map[trace.ThreadID]edgeSource) // thr_continue → target resume
	lo := newLockOrderBuilder()

	cpuW := make([]vtime.Duration, len(l.Events))
	waitW := make([]vtime.Duration, len(l.Events))
	dist := make([]int64, len(l.Events))
	backEv := make([]int, len(l.Events))
	attr := make([]trace.ObjectID, len(l.Events))
	recOf := make([]int, len(l.Events))
	serial := make(map[trace.ObjectID]vtime.Duration)

	prev := l.Header.Start
	for i, ev := range l.Events {
		// Node weight: the global inter-event gap is CPU consumed by the
		// generator of the later event, minus the probe cost — exactly the
		// attribution trace.BuildProfile uses. Completions that idled
		// rather than computed (I/O, expired timed waits) contribute their
		// mandatory latency instead.
		gap := ev.Time.Sub(prev) - l.Header.ProbeCost
		prev = ev.Time
		if gap < 0 {
			gap = 0
		}
		var wait vtime.Duration
		if ev.Class == trace.After && (ev.Call == trace.CallIO || (ev.Call == trace.CallCondTimedWait && !ev.OK)) {
			gap = 0
			if ev.Timeout > 0 {
				wait = ev.Timeout
			}
		}
		cpuW[i], waitW[i] = gap, wait

		t := state(ev.Thread)

		// A completion whose entry probe is not the globally previous event
		// means the thread slept (or was preempted) inside the call: its gap
		// is the recording machine's wake-up/dispatch latency, real busy
		// time of the monitored run (it stays in Work and in the object
		// attribution) but not a mandatory cost — a replay wakes the thread
		// by its own, typically cheaper, dispatch path. Keep it out of the
		// longest-chain weight so the critical path never exceeds what the
		// fastest schedule must serialize.
		chainGap := gap
		if ev.Class == trace.After && t.lastEv >= 0 && t.lastEv != i-1 {
			chainGap = 0
		}

		if ev.Class == trace.Before {
			recOf[i] = t.records
			t.records++
		} else if t.records > 0 {
			recOf[i] = t.records - 1
		}

		// Attribution mirrors the simulator's hold intervals: a mutex (or
		// write-held rwlock) is owned from the acquire's grant to the end
		// of the unlock call, so compute bursts inside the critical
		// section and the unlock's own call cost are serial demand on the
		// lock, while acquire-call costs run *before* the grant and charge
		// the enclosing critical section (if any) instead. A device
		// completion charges its service time to the device (a FIFO
		// resource serializes exactly like an exclusive lock).
		switch {
		case ev.Class == trace.After && ev.Call == trace.CallIO && ev.Object != 0:
			attr[i] = ev.Object
		case ev.Class == trace.After &&
			(ev.Call == trace.CallMutexUnlock || ev.Call == trace.CallRWUnlock) &&
			t.holdsExclusive(ev.Object):
			attr[i] = ev.Object
		default:
			for k := len(t.held) - 1; k >= 0; k-- {
				if t.held[k].exclusive {
					attr[i] = t.held[k].obj
					break
				}
			}
		}

		// Incoming edges: program order plus whichever cross-thread
		// sources this event synchronizes with. Hard edges (mandatory
		// dataflow) advance the longest-path distance; soft edges (lock
		// hand-offs, whose grant order is a schedule accident) only join
		// the recorded run's vector clock (when clocks are kept).
		best, bestEv := t.dist, t.lastEv
		join := func(src edgeSource, hard bool) {
			if !src.ok {
				return
			}
			if clocks {
				t.vc.join(src.vc)
			}
			if hard && src.dist > best {
				best, bestEv = src.dist, src.ev
			}
		}
		if src, ok := spawned[ev.Thread]; ok {
			join(src, true)
			delete(spawned, ev.Thread)
		}
		if src, ok := resumed[ev.Thread]; ok {
			join(src, true)
			delete(resumed, ev.Thread)
		}
		if ev.Class == trace.After {
			switch ev.Call {
			case trace.CallMutexLock:
				join(obj(ev.Object).rel, false)
			case trace.CallMutexTryLock:
				if ev.OK {
					join(obj(ev.Object).rel, false)
				}
			case trace.CallSemaTryWait:
				if ev.OK {
					join(obj(ev.Object).rel, true)
				}
			case trace.CallSemaWait:
				join(obj(ev.Object).rel, true)
			case trace.CallRWRdLock, trace.CallRWWrLock, trace.CallIO:
				join(obj(ev.Object).rel, false)
			case trace.CallCondWait:
				join(obj(ev.Object).sig, true)
				if ev.Mutex != 0 {
					join(obj(ev.Mutex).rel, false)
				}
			case trace.CallCondTimedWait:
				if ev.OK {
					join(obj(ev.Object).sig, true)
				}
				if ev.Mutex != 0 {
					join(obj(ev.Mutex).rel, false)
				}
			case trace.CallThrJoin:
				if src, ok := exited[ev.Target]; ok {
					join(src, true)
				}
			}
		}

		d := best + int64(chainGap) + int64(wait)
		t.dist, t.lastEv = d, i
		dist[i], backEv[i] = d, bestEv
		a.Work += gap
		if attr[i] != 0 {
			serial[attr[i]] += gap + wait
		}

		cur := edgeSource{dist: d, ev: i, ok: true}
		if clocks {
			t.vc[t.idx]++
			a.clocks[i] = t.vc.clone()
			cur.vc = a.clocks[i]
		}

		// Outgoing edges and lock-set maintenance.
		switch ev.Class {
		case trace.Before:
			switch ev.Call {
			case trace.CallCondWait, trace.CallCondTimedWait:
				// Entering the wait atomically releases the companion
				// mutex.
				if ev.Mutex != 0 {
					obj(ev.Mutex).rel = cur
					t.dropHeld(ev.Mutex)
				}
			case trace.CallThrExit:
				exited[ev.Thread] = cur
			}
		case trace.After:
			switch ev.Call {
			case trace.CallMutexLock:
				lo.acquired(t, ev, i)
				t.pushHeld(ev.Object, true, ev.Loc)
			case trace.CallMutexTryLock:
				if ev.OK {
					lo.acquired(t, ev, i)
					t.pushHeld(ev.Object, true, ev.Loc)
				}
			case trace.CallMutexUnlock, trace.CallRWUnlock:
				if ev.Object != 0 {
					obj(ev.Object).rel = cur
				}
				t.dropHeld(ev.Object)
			case trace.CallSemaPost:
				if ev.Object != 0 {
					obj(ev.Object).rel = cur
				}
			case trace.CallCondWait, trace.CallCondTimedWait:
				// Returning from the wait re-acquires the companion mutex.
				if ev.Mutex != 0 {
					reacq := ev
					reacq.Object = ev.Mutex
					lo.acquired(t, reacq, i)
					t.pushHeld(ev.Mutex, true, ev.Loc)
				}
			case trace.CallCondSignal, trace.CallCondBroadcast:
				if ev.Object != 0 {
					obj(ev.Object).sig = cur
				}
			case trace.CallRWRdLock:
				lo.acquired(t, ev, i)
				t.pushHeld(ev.Object, false, ev.Loc)
			case trace.CallRWWrLock:
				lo.acquired(t, ev, i)
				t.pushHeld(ev.Object, true, ev.Loc)
			case trace.CallIO:
				if ev.Object != 0 {
					obj(ev.Object).rel = cur
				}
			case trace.CallThrCreate:
				if ev.Target != 0 {
					spawned[ev.Target] = cur
				}
			case trace.CallThrContinue:
				if ev.Target != 0 {
					resumed[ev.Target] = cur
				}
			}
		}
	}

	a.LockOrder = lo.build()
	a.extractPath(dist, backEv, cpuW, waitW, attr, recOf, serial)
	return a
}

func (t *threadState) pushHeld(id trace.ObjectID, exclusive bool, loc source.Loc) {
	if id == 0 {
		return
	}
	t.held = append(t.held, heldLock{obj: id, exclusive: exclusive, acqLoc: loc})
}

// holdsExclusive reports whether the thread currently holds id exclusively.
func (t *threadState) holdsExclusive(id trace.ObjectID) bool {
	if id == 0 {
		return false
	}
	for k := len(t.held) - 1; k >= 0; k-- {
		if t.held[k].obj == id {
			return t.held[k].exclusive
		}
	}
	return false
}

// dropHeld removes the most recent stack entry for id; unmatched unlocks
// (possible in repaired logs) are ignored.
func (t *threadState) dropHeld(id trace.ObjectID) {
	for k := len(t.held) - 1; k >= 0; k-- {
		if t.held[k].obj == id {
			t.held = append(t.held[:k], t.held[k+1:]...)
			return
		}
	}
}

// Clocks returns one vector clock per event, indexed like Log.Events.
// The first call builds them by walking the log again with clocks kept;
// later calls return the same slice. Safe for concurrent callers; the
// result must not be modified.
func (a *Analysis) Clocks() []VectorClock {
	a.clocksOnce.Do(func() { a.clocks = analyze(a.Log, true).clocks })
	return a.clocks
}

// HappensBefore reports whether event i happens before event j (indices
// into Log.Events). Identical indices are not ordered.
func (a *Analysis) HappensBefore(i, j int) bool {
	if i == j {
		return false
	}
	c := a.Clocks()
	ti := a.threadIdx[a.Log.Events[i].Thread]
	return c[j][ti] >= c[i][ti]
}

// Concurrent reports whether neither event happens before the other.
func (a *Analysis) Concurrent(i, j int) bool {
	return i != j && !a.HappensBefore(i, j) && !a.HappensBefore(j, i)
}
