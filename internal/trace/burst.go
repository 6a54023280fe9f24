package trace

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

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
// observed CPU cost, and the call's parameters and recorded outcome, with
// every reference resolved to a dense index. The call's recorded IDs and
// source location live in the profile's interned site table, which
// Profile.Site returns, so a replay that builds no timeline reads one
// 56-byte record per call.
type CallRecord struct {
	// CPUBefore is user computation executed before the call.
	CPUBefore vtime.Duration
	// CallCPU is the library-call cost observed in the recording. For
	// calls that blocked during the recording this is only the post-wake
	// remnant; BlockedInLog distinguishes the two.
	CallCPU vtime.Duration
	// Timeout is cond_timedwait's timeout and an I/O request's service
	// time.
	Timeout vtime.Duration
	// Obj indexes Log.Objects: the object the call operates on. Mutex is
	// the companion mutex of cond_wait / cond_timedwait. Either is -1 when
	// the event names no object the log declares.
	Obj, Mutex int32
	// Target indexes ThreadIDs(): the created thread for thr_create, the
	// join target for thr_join, the target of thr_suspend and
	// thr_continue. It is -1 when the event names no profiled thread: a
	// wildcard join names thread 0, and a thread that made no call in the
	// recording has no profile.
	Target int32
	// JoinedTarget is who a thr_join reaped in the recording.
	JoinedTarget ThreadID
	Prio         int32
	// Released is, for cond_broadcast, the number of threads the
	// broadcast released in the recording. The Simulator's barrier fix
	// (paper section 6) blocks a simulated broadcast until that many
	// threads have arrived at the condition.
	Released int32
	// Site indexes Profile.Sites: the call's recorded source location,
	// object and target.
	Site int32
	Call Call
	OK   bool
	// BlockedInLog reports whether other threads ran between this call's
	// Before and After events in the recording.
	BlockedInLog bool
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

// CallSite is what a replay reads of a call beyond its record: the
// recorded source location, which timelines show, and the recorded object
// and target IDs, which timelines and error texts print even when the
// record resolves them to -1 (an undeclared object, an unprofiled join
// target). Calls share sites: a program has few distinct ones.
type CallSite struct {
	Loc    source.Loc
	Object ObjectID
	Target ThreadID
}

// Profile is the complete behaviour profile of a recording. It holds no
// events: the header, the object table, one call record per call and the
// interned call sites are all a replay reads, so the Log it was built
// from need not be kept. A Profile is immutable once built: the Simulator
// and every other consumer only read it, so one Profile may back any
// number of concurrent simulations (vppb-sim -sweep builds it once and
// fans the machine sizes out over it).
type Profile struct {
	Header Header
	// Objects is the recording's object table; CallRecord.Obj and Mutex
	// index it.
	Objects []ObjectInfo
	Threads map[ThreadID]*ThreadProfile
	// IDs lists the profiled threads in ascending order, so consumers
	// never iterate the Threads map directly (map order is random and
	// would make replays nondeterministic).
	IDs []ThreadID
	// Sites is the interned site table, in order of first appearance in
	// the recording.
	Sites []CallSite
}

// Site returns call record r's site: its recorded source location and
// IDs.
func (p *Profile) Site(r *CallRecord) *CallSite { return &p.Sites[r.Site] }

// Duration returns the recorded execution time.
func (p *Profile) Duration() vtime.Duration { return p.Header.End.Sub(p.Header.Start) }

// Bytes is the size of the profile's tables: call records, sites, objects
// and per-thread profiles. The strings they share with the decoded log
// (file and object names) are not counted.
func (p *Profile) Bytes() int64 {
	n := int64(len(p.Sites))*int64(unsafe.Sizeof(CallSite{})) +
		int64(len(p.Objects))*int64(unsafe.Sizeof(ObjectInfo{})) +
		int64(len(p.IDs))*int64(unsafe.Sizeof(ThreadID(0)))
	for _, tp := range p.Threads {
		n += int64(unsafe.Sizeof(*tp)) + int64(len(tp.Calls))*int64(unsafe.Sizeof(CallRecord{}))
	}
	return n
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
	if len(l.Events) > math.MaxInt32 {
		return nil, fmt.Errorf("trace: profile supports at most %d events, log has %d", math.MaxInt32, len(l.Events))
	}
	ix, _, err := l.validate()
	if err != nil {
		return nil, &ValidationError{Err: err}
	}

	// Every Before event becomes one call record, so validate's counts
	// size each thread's call list exactly; the lists share one arena.
	// The threads with calls are the profiled ones, and rank holds each
	// one's dense index, its position in ascending ID order (-1 for a
	// slot without calls).
	total := 0
	order := make([]int32, 0, len(ix.befores))
	for s, n := range ix.befores {
		total += int(n)
		if n > 0 {
			order = append(order, int32(s))
		}
	}
	sort.Slice(order, func(i, j int) bool { return l.threadID(int(order[i])) < l.threadID(int(order[j])) })
	rank := make([]int32, len(ix.befores))
	for s := range rank {
		rank[s] = -1
	}
	for i, s := range order {
		rank[s] = int32(i)
	}
	// Most calls name no target thread and no companion mutex, so ID 0
	// resolves once, not once per call.
	thread0, object0 := rank[ix.slots[0]], ix.object(0)
	thread := func(id ThreadID) int32 {
		if id == 0 {
			return thread0
		}
		if s, ok := ix.slots[id]; ok {
			return rank[s]
		}
		return -1
	}
	object := func(id ObjectID) int32 {
		if id == 0 {
			return object0
		}
		return ix.object(id)
	}
	arena := make([]CallRecord, total)
	calls := make([][]CallRecord, len(ix.befores))
	for _, s := range order {
		n := ix.befores[s]
		calls[s], arena = arena[:n:n], arena[n:]
	}
	// filled counts the records written per slot. The last one written is
	// still waiting for its After when waiting is set: validate has
	// checked that a thread issues nothing else while a call is open.
	filled := make([]int32, len(calls))
	waiting := make([]bool, len(calls))
	// seq is the Seq of each slot's last Before event, for BlockedInLog.
	seq := make([]int64, len(calls))
	st := newSiteTable(len(calls))

	// Attribute each global inter-event gap to the generator of the later
	// event, minus the probe cost of that event. Along the same walk,
	// track who is waiting on each condition variable so that broadcasts
	// can record how many threads they released (the barrier fix input).
	var condWaiters map[ObjectID]map[ThreadID]bool
	// An After with no record waiting (one closing a thr_exit) is an
	// error; the lowest such thread is reported.
	var orphan *Event
	prev := l.Header.Start
	// Consecutive events mostly come from one thread: its slot is looked
	// up once per run.
	tid, slot := ThreadID(0), int32(-1)
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
		if ev.Thread != tid || slot < 0 {
			tid, slot = ev.Thread, ix.slots[ev.Thread]
		}
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
				CPUBefore: gap,
				Timeout:   ev.Timeout,
				Obj:       object(ev.Object),
				Mutex:     object(ev.Mutex),
				Target:    thread(ev.Target),
				Prio:      ev.Prio,
				Released:  released,
				Site:      st.intern(slot, CallSite{Loc: ev.Loc, Object: ev.Object, Target: ev.Target}),
				Call:      ev.Call,
				OK:        ev.OK,
			}
			filled[slot]++
			seq[slot] = ev.Seq
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
		rec.BlockedInLog = ev.Seq != seq[slot]+1
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
		Header:  l.Header,
		Objects: l.Objects,
		Threads: make(map[ThreadID]*ThreadProfile, len(order)),
		IDs:     make([]ThreadID, len(order)),
		Sites:   st.sites,
	}
	tps := make([]ThreadProfile, len(order))
	for i, s := range order {
		info := ThreadInfo{BoundCPU: -1}
		if int(s) < len(l.Threads) {
			info = l.Threads[s]
		}
		tps[i] = ThreadProfile{Info: info, Calls: calls[s]}
		p.Threads[info.ID] = &tps[i]
		p.IDs[i] = info.ID
	}
	return p, nil
}

// siteTable interns call sites. A thread's calls cycle through a few
// sites (a lock, its wait, its unlock), so each thread slot remembers the
// sites of its last few calls, and only a site outside those costs a map
// lookup.
type siteTable struct {
	sites  []CallSite
	index  map[CallSite]int32
	recent [][recentSites]int32
}

// recentSites is how many of its latest sites each thread slot remembers.
const recentSites = 4

func newSiteTable(slots int) *siteTable {
	t := &siteTable{index: make(map[CallSite]int32), recent: make([][recentSites]int32, slots)}
	for i := range t.recent {
		for j := range t.recent[i] {
			t.recent[i][j] = -1
		}
	}
	return t
}

// intern returns cs's index in the table, adding it if new, and makes it
// the slot's most recent site.
func (t *siteTable) intern(slot int32, cs CallSite) int32 {
	rc := &t.recent[slot]
	for j, si := range rc {
		if si >= 0 && t.sites[si] == cs {
			copy(rc[1:j+1], rc[:j])
			rc[0] = si
			return si
		}
	}
	si, ok := t.index[cs]
	if !ok {
		si = int32(len(t.sites))
		t.sites = append(t.sites, cs)
		t.index[cs] = si
	}
	copy(rc[1:], rc[:recentSites-1])
	rc[0] = si
	return si
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
