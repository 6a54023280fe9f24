package trace

import (
	"fmt"
	"sort"

	"vppb/internal/vtime"
)

// Header carries recording-wide metadata.
type Header struct {
	// Program names the recorded workload.
	Program string
	// CPUs and LWPs describe the machine the recording ran on. VPPB
	// recordings are made on a uni-processor with a single LWP.
	CPUs int
	LWPs int
	// ProbeCost is the CPU time each probe firing added to the monitored
	// execution. The Simulator deducts it so that predictions describe
	// the unmonitored program.
	ProbeCost vtime.Duration
	// Start and End delimit the recording in virtual time.
	Start, End vtime.Time
}

// Log is a full recording: header, thread and object tables, and the
// globally ordered event list.
type Log struct {
	Header  Header
	Threads []ThreadInfo
	Objects []ObjectInfo
	Events  []Event
}

// Duration returns the recorded execution time.
func (l *Log) Duration() vtime.Duration {
	return l.Header.End.Sub(l.Header.Start)
}

// Clone returns a deep copy of the log. Mutating the copy (fault
// injection, repair) leaves the original untouched.
func (l *Log) Clone() *Log {
	return &Log{
		Header:  l.Header,
		Threads: append([]ThreadInfo(nil), l.Threads...),
		Objects: append([]ObjectInfo(nil), l.Objects...),
		Events:  append([]Event(nil), l.Events...),
	}
}

// Thread returns the ThreadInfo for id, or nil if unknown.
func (l *Log) Thread(id ThreadID) *ThreadInfo {
	for i := range l.Threads {
		if l.Threads[i].ID == id {
			return &l.Threads[i]
		}
	}
	return nil
}

// Object returns the ObjectInfo for id, or nil if unknown.
func (l *Log) Object(id ObjectID) *ObjectInfo {
	for i := range l.Objects {
		if l.Objects[i].ID == id {
			return &l.Objects[i]
		}
	}
	return nil
}

// ObjectName returns a printable name for an object ID.
func (l *Log) ObjectName(id ObjectID) string {
	if o := l.Object(id); o != nil && o.Name != "" {
		return o.Name
	}
	return fmt.Sprintf("obj%d", id)
}

// ThreadName returns a printable name for a thread ID, "T<id>" if the
// thread has no recorded name.
func (l *Log) ThreadName(id ThreadID) string {
	if t := l.Thread(id); t != nil && t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("T%d", id)
}

// SortEvents restores the canonical global order (time, then recorded
// sequence) after any external manipulation.
func (l *Log) SortEvents() {
	sort.SliceStable(l.Events, func(i, j int) bool {
		if l.Events[i].Time != l.Events[j].Time {
			return l.Events[i].Time < l.Events[j].Time
		}
		return l.Events[i].Seq < l.Events[j].Seq
	})
}

// PerThread splits the global event list into one chronological list per
// thread — the Simulator's first step (paper figure 4). Collection markers
// (start_collect / end_collect) stay with the thread that generated them.
// The returned map has no defined iteration order; callers that emit
// per-thread output must walk it through ThreadIDs.
func (l *Log) PerThread() map[ThreadID][]Event {
	m := make(map[ThreadID][]Event)
	for _, ev := range l.Events {
		m[ev.Thread] = append(m[ev.Thread], ev)
	}
	return m
}

// ThreadIDs returns all thread IDs appearing in the log, ascending. Both
// sources count: the thread table and the event list. A thread that was
// registered but recorded zero events (it was created and exited between
// probes, or the log was truncated) still gets an ID, so visualization and
// analysis lanes do not silently disappear.
func (l *Log) ThreadIDs() []ThreadID {
	seen := make(map[ThreadID]bool, len(l.Threads))
	ids := make([]ThreadID, 0, len(l.Threads))
	for i := range l.Threads {
		if id := l.Threads[i].ID; !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, ev := range l.Events {
		if !seen[ev.Thread] {
			seen[ev.Thread] = true
			ids = append(ids, ev.Thread)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Validate checks structural invariants of a recording: monotone
// timestamps, events within the header's time range, known calls, matched
// Before/After pairing per thread for blocking calls, and thread/object
// references resolvable through the tables. It returns the first violation
// found.
func (l *Log) Validate() error {
	_, _, err := l.validate()
	return err
}

// ValidationError is how BuildProfile reports a log that fails Validate,
// so a caller that builds the profile straight away can tell a log to
// repair from one that cannot be profiled at all. Err is the error
// Validate returns.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }

func (e *ValidationError) Unwrap() error { return e.Err }

// logIndex resolves the thread and object IDs of one log in constant
// time. validate builds it once per call, and BuildProfile reuses it.
type logIndex struct {
	// slots maps every thread an event may name to a dense slot: the
	// table position of the thread's first entry, and one past the table
	// for thread 0 when the table has no entry for it.
	slots   map[ThreadID]int32
	objects map[ObjectID]struct{}
	// befores counts each slot's Before events: the exact length of the
	// thread's call list in a profile.
	befores []int32
}

func newLogIndex(l *Log) *logIndex {
	n := len(l.Threads)
	ix := &logIndex{
		slots:   make(map[ThreadID]int32, n+1),
		objects: make(map[ObjectID]struct{}, len(l.Objects)),
		befores: make([]int32, n+1),
	}
	for i := range l.Threads {
		if _, dup := ix.slots[l.Threads[i].ID]; !dup {
			ix.slots[l.Threads[i].ID] = int32(i)
		}
	}
	if _, ok := ix.slots[0]; !ok {
		ix.slots[0] = int32(n)
	}
	for i := range l.Objects {
		ix.objects[l.Objects[i].ID] = struct{}{}
	}
	return ix
}

// threadID is the ID of the thread in slot s.
func (l *Log) threadID(s int) ThreadID {
	if s < len(l.Threads) {
		return l.Threads[s].ID
	}
	return 0
}

func (ix *logIndex) hasObject(id ObjectID) bool {
	_, ok := ix.objects[id]
	return ok
}

// validate is Validate plus the index of the offending event (-1 for
// log-level violations), which Repair uses to name unrecoverable records,
// and, for a valid log, its ID index.
func (l *Log) validate() (*logIndex, int, error) {
	ix := newLogIndex(l)
	// open holds each slot's call awaiting its After; CallNone is none.
	open := make([]Call, len(ix.befores))
	var prev vtime.Time
	prevSeq := int64(-1)
	for i := range l.Events {
		ev := &l.Events[i]
		if ev.Time < prev {
			return nil, i, fmt.Errorf("trace: event %d: time %v before previous %v", i, ev.Time, prev)
		}
		if ev.Time == prev && ev.Seq <= prevSeq && i > 0 {
			return nil, i, fmt.Errorf("trace: event %d: sequence not increasing at equal times", i)
		}
		prev, prevSeq = ev.Time, ev.Seq
		if ev.Time < l.Header.Start || ev.Time > l.Header.End {
			return nil, i, fmt.Errorf("trace: event %d: time %v outside [%v, %v]", i, ev.Time, l.Header.Start, l.Header.End)
		}
		if ev.Call == CallNone || ev.Call >= numCalls {
			return nil, i, fmt.Errorf("trace: event %d: invalid call %d", i, uint8(ev.Call))
		}
		slot, known := ix.slots[ev.Thread]
		if !known {
			return nil, i, fmt.Errorf("trace: event %d: unknown thread %d", i, ev.Thread)
		}
		if ev.Object != 0 && !ix.hasObject(ev.Object) {
			return nil, i, fmt.Errorf("trace: event %d: unknown object %d", i, ev.Object)
		}
		if ev.Mutex != 0 && !ix.hasObject(ev.Mutex) {
			return nil, i, fmt.Errorf("trace: event %d: unknown mutex %d", i, ev.Mutex)
		}
		switch ev.Class {
		case Before:
			if c := open[slot]; c != CallNone {
				return nil, i, fmt.Errorf("trace: event %d: thread %d issued %v while %v still open", i, ev.Thread, ev.Call, c)
			}
			if pairsWithAfter(ev.Call) {
				open[slot] = ev.Call
			}
			ix.befores[slot]++
		case After:
			c := open[slot]
			if c == CallNone {
				return nil, i, fmt.Errorf("trace: event %d: thread %d AFTER %v without BEFORE", i, ev.Thread, ev.Call)
			}
			if c != ev.Call {
				return nil, i, fmt.Errorf("trace: event %d: thread %d AFTER %v does not match open %v", i, ev.Thread, ev.Call, c)
			}
			open[slot] = CallNone
		default:
			return nil, i, fmt.Errorf("trace: event %d: invalid class %d", i, ev.Class)
		}
	}
	// thr_exit never completes for the exiting thread; everything else
	// must have closed. The lowest such thread is reported.
	bad := -1
	for s, c := range open {
		if c != CallNone && c != CallThrExit && (bad < 0 || l.threadID(s) < l.threadID(bad)) {
			bad = s
		}
	}
	if bad >= 0 {
		return nil, -1, fmt.Errorf("trace: thread %d: %v never completed", l.threadID(bad), open[bad])
	}
	return ix, -1, nil
}

// pairsWithAfter reports whether a Before event of call c is followed by a
// matching After event in a recording.
func pairsWithAfter(c Call) bool {
	switch c {
	case CallStartCollect, CallEndCollect:
		return false
	}
	return true
}

// Stats summarises a recording, backing the paper's section 4 log
// measurements (events per second, log sizes).
type Stats struct {
	Events        int
	Threads       int
	Objects       int
	Duration      vtime.Duration
	EventsPerSec  float64
	TextBytes     int
	BinaryBytes   int
	ProbeOverhead vtime.Duration // total recording intrusion
}

// ComputeStats derives summary statistics for the log.
func (l *Log) ComputeStats() Stats {
	s := Stats{
		Events:   len(l.Events),
		Threads:  len(l.Threads),
		Objects:  len(l.Objects),
		Duration: l.Duration(),
	}
	if s.Duration > 0 {
		s.EventsPerSec = float64(s.Events) / s.Duration.Seconds()
	}
	s.TextBytes = len(AppendText(nil, l))
	s.BinaryBytes = len(AppendBinary(nil, l))
	s.ProbeOverhead = vtime.Duration(int64(l.Header.ProbeCost) * int64(len(l.Events)))
	return s
}
