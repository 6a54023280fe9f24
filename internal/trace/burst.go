package trace

import (
	"fmt"
	"sort"
	"sync"

	"vppb/internal/source"
	"vppb/internal/vtime"
)

// This file reconstructs per-thread behaviour profiles from a uni-processor
// recording — the input format of the Simulator. On a uni-processor with a
// single LWP, threads run to the point of blocking, so the wall-clock gap
// between two consecutive events in the global log is CPU time consumed by
// the thread that generated the *later* event. The per-event probe cost
// recorded in the header is deducted so the profile describes the
// unmonitored program.

// CallRecord is one thread-library call as the Simulator replays it: the
// CPU burst the thread executes before reaching the call, the call's own
// observed CPU cost, and the call's parameters and recorded outcome.
type CallRecord struct {
	// CPUBefore is user computation executed before the call.
	CPUBefore vtime.Duration
	// CallCPU is the library-call cost observed in the recording. For
	// calls that blocked during the recording this is only the post-wake
	// remnant; BlockedInLog distinguishes the two.
	CallCPU vtime.Duration
	// BlockedInLog reports whether other threads ran between this call's
	// Before and After events in the recording.
	BlockedInLog bool
	Call         Call
	Object       ObjectID
	// MutexObject is the companion mutex of cond_wait / cond_timedwait.
	MutexObject ObjectID
	// Target: created thread for thr_create; join target for thr_join
	// (0 = wildcard; JoinedTarget holds who was actually reaped).
	Target       ThreadID
	JoinedTarget ThreadID
	OK           bool
	Timeout      vtime.Duration
	Prio         int32
	Loc          source.Loc
	// Released is, for cond_broadcast, the number of threads the
	// broadcast released in the recording. The Simulator's barrier fix
	// (paper section 6) blocks a simulated broadcast until that many
	// threads have arrived at the condition.
	Released int32
	// Seq of the Before event, for mapping simulated events back to the
	// recording.
	Seq int64
}

// ThreadProfile is the per-thread behaviour profile: the thread's identity
// and its chronological call records.
type ThreadProfile struct {
	Info  ThreadInfo
	Calls []CallRecord
}

// TotalCPU sums the thread's computation and call costs.
func (p *ThreadProfile) TotalCPU() vtime.Duration {
	var total vtime.Duration
	for _, c := range p.Calls {
		total += c.CPUBefore + c.CallCPU
	}
	return total
}

// Profile is the complete behaviour profile of a recording. A Profile is
// immutable once built: the Simulator and every other consumer only read
// it, so one Profile may back any number of concurrent simulations
// (vppb-sim -sweep builds it once and fans the machine sizes out over it).
type Profile struct {
	Log     *Log
	Threads map[ThreadID]*ThreadProfile
	// IDs lists the profiled threads in ascending order, so consumers
	// never iterate the Threads map directly (map order is random and
	// would make replays nondeterministic).
	IDs []ThreadID

	denseOnce sync.Once
	dense     *ProfileIndex
}

// DenseCall carries the dense arena indices of one CallRecord's
// references, precomputed once per profile so the Simulator's hot loop
// replays without a single map lookup. A -1 index means the reference is
// absent (no object on the call, wildcard join target, or a reference to
// an entity the recording never declared — the Simulator keeps its
// original diagnostics for those).
type DenseCall struct {
	// Obj and Mutex index Log.Objects.
	Obj, Mutex int32
	// Target indexes ThreadIDs() (ascending-ID dense thread ids).
	Target int32
}

// ProfileIndex is the dense-id view of a Profile: every ThreadID and
// ObjectID reference resolved to an arena index. It is built once per
// profile (lazily, concurrency-safe) and shared by all simulations.
type ProfileIndex struct {
	threadIdx map[ThreadID]int32
	// Calls holds one DenseCall per CallRecord, indexed by dense thread
	// id then call position — aligned with ThreadProfile.Calls.
	Calls [][]DenseCall
}

// ThreadIndex resolves a ThreadID to its dense index, or -1.
func (ix *ProfileIndex) ThreadIndex(id ThreadID) int32 {
	if i, ok := ix.threadIdx[id]; ok {
		return i
	}
	return -1
}

// Dense returns the profile's dense-id index, building it on first use.
// Safe for concurrent callers; the result is immutable.
func (p *Profile) Dense() *ProfileIndex {
	p.denseOnce.Do(func() { p.dense = p.buildDense() })
	return p.dense
}

func (p *Profile) buildDense() *ProfileIndex {
	ids := p.ThreadIDs()
	ix := &ProfileIndex{
		threadIdx: make(map[ThreadID]int32, len(ids)),
		Calls:     make([][]DenseCall, len(ids)),
	}
	for i, id := range ids {
		ix.threadIdx[id] = int32(i)
	}
	objIdx := make(map[ObjectID]int32, len(p.Log.Objects))
	for i, oi := range p.Log.Objects {
		objIdx[oi.ID] = int32(i)
	}
	resolveObj := func(id ObjectID) int32 {
		if i, ok := objIdx[id]; ok {
			return i
		}
		return -1
	}
	for ti, id := range ids {
		calls := p.Threads[id].Calls
		dense := make([]DenseCall, len(calls))
		for ci := range calls {
			r := &calls[ci]
			d := DenseCall{Obj: resolveObj(r.Object), Mutex: resolveObj(r.MutexObject), Target: -1}
			if t, ok := ix.threadIdx[r.Target]; ok {
				d.Target = t
			}
			dense[ci] = d
		}
		ix.Calls[ti] = dense
	}
	return ix
}

// ThreadIDs returns the profiled thread IDs in ascending order. It
// tolerates hand-built profiles that left IDs unset.
func (p *Profile) ThreadIDs() []ThreadID {
	if len(p.IDs) == len(p.Threads) {
		return p.IDs
	}
	ids := make([]ThreadID, 0, len(p.Threads))
	for id := range p.Threads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// BuildProfile derives the per-thread behaviour profile from a
// uni-processor recording. It fails if the recording was not taken on one
// CPU with one LWP (the Recorder's restriction, paper section 6) or if the
// log is structurally invalid; the latter error is a *ValidationError, so
// a caller need not run Validate first to decide on repair.
func BuildProfile(l *Log) (*Profile, error) {
	if l.Header.CPUs != 1 || l.Header.LWPs != 1 {
		return nil, fmt.Errorf("trace: profile requires a 1-CPU/1-LWP recording, log has %d CPUs, %d LWPs",
			l.Header.CPUs, l.Header.LWPs)
	}
	ix, _, err := l.validate()
	if err != nil {
		return nil, &ValidationError{Err: err}
	}

	// Every Before event becomes one call record, so validate's counts
	// size each thread's call list exactly; the lists share one arena.
	total := 0
	for _, n := range ix.befores {
		total += int(n)
	}
	arena := make([]CallRecord, total)
	calls := make([][]CallRecord, len(ix.befores))
	nThreads := 0
	for s, n := range ix.befores {
		if n > 0 {
			calls[s], arena = arena[:n:n], arena[n:]
			nThreads++
		}
	}
	// filled counts the records written per slot. The last one written is
	// still waiting for its After when waiting is set: validate has
	// checked that a thread issues nothing else while a call is open.
	filled := make([]int32, len(calls))
	waiting := make([]bool, len(calls))

	// Attribute each global inter-event gap to the generator of the later
	// event, minus the probe cost of that event. Along the same walk,
	// track who is waiting on each condition variable so that broadcasts
	// can record how many threads they released (the barrier fix input).
	var condWaiters map[ObjectID]map[ThreadID]bool
	// An After with no record waiting (one closing a thr_exit) is an
	// error; the lowest such thread is reported.
	var orphan *Event
	prev := l.Header.Start
	for i := range l.Events {
		ev := &l.Events[i]
		gap := ev.Time.Sub(prev) - l.Header.ProbeCost
		if gap < 0 {
			gap = 0
		}
		// A timed wait that expired, or an I/O completion, idled rather
		// than computed.
		if ev.Class == After && (ev.Call == CallIO || (ev.Call == CallCondTimedWait && !ev.OK)) {
			gap = 0
		}
		prev = ev.Time
		slot := ix.slots[ev.Thread]
		condWait := ev.Call == CallCondWait || ev.Call == CallCondTimedWait
		if ev.Class == Before {
			var released int32
			switch {
			case condWait:
				if condWaiters == nil {
					condWaiters = make(map[ObjectID]map[ThreadID]bool)
				}
				if condWaiters[ev.Object] == nil {
					condWaiters[ev.Object] = make(map[ThreadID]bool)
				}
				condWaiters[ev.Object][ev.Thread] = true
			case ev.Call == CallCondBroadcast:
				released = int32(len(condWaiters[ev.Object]))
			}
			calls[slot][filled[slot]] = CallRecord{
				CPUBefore:   gap,
				Call:        ev.Call,
				Object:      ev.Object,
				MutexObject: ev.Mutex,
				Target:      ev.Target,
				OK:          ev.OK,
				Timeout:     ev.Timeout,
				Prio:        ev.Prio,
				Loc:         ev.Loc,
				Released:    released,
				Seq:         ev.Seq,
			}
			filled[slot]++
			waiting[slot] = pairsWithAfter(ev.Call) && ev.Call != CallThrExit
			continue
		}
		if condWait {
			delete(condWaiters[ev.Object], ev.Thread)
		}
		if !waiting[slot] {
			if orphan == nil || ev.Thread < orphan.Thread {
				orphan = ev
			}
			continue
		}
		rec := &calls[slot][filled[slot]-1]
		rec.CallCPU = gap
		// Did anyone else run in between? Compare global sequence
		// numbers: an intervening event from another thread means the
		// call blocked.
		rec.BlockedInLog = ev.Seq != rec.Seq+1
		if ev.Call == CallThrJoin {
			rec.JoinedTarget = ev.Target
		}
		if hasOutcome(ev.Call) {
			rec.OK = ev.OK
		}
		waiting[slot] = false
	}
	if orphan != nil {
		return nil, fmt.Errorf("trace: thread %d: AFTER without BEFORE at seq %d", orphan.Thread, orphan.Seq)
	}

	p := &Profile{
		Log:     l,
		Threads: make(map[ThreadID]*ThreadProfile, nThreads),
		IDs:     make([]ThreadID, 0, nThreads),
	}
	tps := make([]ThreadProfile, 0, nThreads)
	for s, cs := range calls {
		if len(cs) == 0 {
			continue
		}
		info := ThreadInfo{BoundCPU: -1}
		if s < len(l.Threads) {
			info = l.Threads[s]
		}
		tps = append(tps, ThreadProfile{Info: info, Calls: cs})
		p.Threads[info.ID] = &tps[len(tps)-1]
		p.IDs = append(p.IDs, info.ID)
	}
	sort.Slice(p.IDs, func(i, j int) bool { return p.IDs[i] < p.IDs[j] })
	return p, nil
}

// TotalCPU sums computation over all threads — the unmonitored
// uni-processor execution time implied by the profile.
func (p *Profile) TotalCPU() vtime.Duration {
	var total vtime.Duration
	for _, tp := range p.Threads {
		total += tp.TotalCPU()
	}
	return total
}
