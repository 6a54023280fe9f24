package trace

import (
	"fmt"
	"sort"

	"vppb/internal/vtime"
)

// This file models "information describing the simulated execution" —
// artifact (g) in the paper's figure 1 — which both the trace-driven
// Simulator and the execution-driven reference kernel produce, and which
// the Visualizer consumes.

// ThreadState is the scheduling state of a thread over a span of time,
// with the same three-way distinction the execution flow graph draws: a
// solid line (running), a grey line (runnable but no LWP or CPU), or no
// line (blocked).
type ThreadState uint8

// Thread states.
const (
	StateBlocked ThreadState = iota
	StateRunnable
	StateRunning
)

func (s ThreadState) String() string {
	switch s {
	case StateBlocked:
		return "blocked"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	}
	return fmt.Sprintf("ThreadState(%d)", uint8(s))
}

// Span is a maximal interval during which a thread stays in one state.
// CPU is the processor the thread runs on during a running span, -1
// otherwise.
type Span struct {
	Start, End vtime.Time
	State      ThreadState
	CPU        int32
	LWP        int32
}

// Duration returns the span length.
func (s Span) Duration() vtime.Duration { return s.End.Sub(s.Start) }

// PlacedEvent is an event as it occurred in a simulated (or reference)
// execution: which CPU it happened on and when it started and ended. The
// Visualizer's popup shows exactly these fields.
type PlacedEvent struct {
	Event Event
	CPU   int32
	Start vtime.Time
	End   vtime.Time
}

// ThreadTimeline is the per-thread part of an execution description.
type ThreadTimeline struct {
	Info   ThreadInfo
	Spans  []Span
	Events []PlacedEvent
	// Created and Ended delimit the thread's lifetime.
	Created, Ended vtime.Time
}

// WorkTime is the time the thread actually ran.
func (t *ThreadTimeline) WorkTime() vtime.Duration {
	var d vtime.Duration
	for _, s := range t.Spans {
		if s.State == StateRunning {
			d += s.Duration()
		}
	}
	return d
}

// TotalTime is the thread's lifetime including blocked and runnable time.
func (t *ThreadTimeline) TotalTime() vtime.Duration { return t.Ended.Sub(t.Created) }

// StateAt reports the thread's state at time at.
func (t *ThreadTimeline) StateAt(at vtime.Time) (ThreadState, bool) {
	i := sort.Search(len(t.Spans), func(i int) bool { return t.Spans[i].End > at })
	if i == len(t.Spans) || t.Spans[i].Start > at {
		return StateBlocked, false
	}
	return t.Spans[i].State, true
}

// Timeline describes one complete (simulated or reference) execution.
type Timeline struct {
	Program  string
	CPUs     int
	LWPs     int
	Duration vtime.Duration
	Threads  []ThreadTimeline
	// Objects is the synchronization-object table, so analyses can name
	// the objects referenced by placed events.
	Objects []ObjectInfo
}

// ObjectName resolves an object ID to a printable name.
func (tl *Timeline) ObjectName(id ObjectID) string {
	for _, o := range tl.Objects {
		if o.ID == id && o.Name != "" {
			return o.Name
		}
	}
	return fmt.Sprintf("obj%d", id)
}

// Thread returns the timeline of thread id, or nil.
func (tl *Timeline) Thread(id ThreadID) *ThreadTimeline {
	for i := range tl.Threads {
		if tl.Threads[i].Info.ID == id {
			return &tl.Threads[i]
		}
	}
	return nil
}

// ParallelismPoint is one step of the parallelism graph: how many threads
// are running and how many are runnable-but-not-running from Time until
// the next point.
type ParallelismPoint struct {
	Time     vtime.Time
	Running  int
	Runnable int
}

// Parallelism builds the step function behind the paper's parallelism
// graph (green = running, red on top = runnable but not running).
func (tl *Timeline) Parallelism() []ParallelismPoint {
	type delta struct {
		at              vtime.Time
		dRun, dRunnable int
		seq             int
	}
	var deltas []delta
	seq := 0
	for _, th := range tl.Threads {
		for _, s := range th.Spans {
			if s.Start == s.End {
				continue
			}
			switch s.State {
			case StateRunning:
				deltas = append(deltas, delta{s.Start, 1, 0, seq}, delta{s.End, -1, 0, seq + 1})
			case StateRunnable:
				deltas = append(deltas, delta{s.Start, 0, 1, seq}, delta{s.End, 0, -1, seq + 1})
			}
			seq += 2
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].at != deltas[j].at {
			return deltas[i].at < deltas[j].at
		}
		return deltas[i].seq < deltas[j].seq
	})
	var points []ParallelismPoint
	run, runnable := 0, 0
	i := 0
	for i < len(deltas) {
		at := deltas[i].at
		for i < len(deltas) && deltas[i].at == at {
			run += deltas[i].dRun
			runnable += deltas[i].dRunnable
			i++
		}
		if n := len(points); n > 0 && points[n-1].Time == at {
			points[n-1].Running = run
			points[n-1].Runnable = runnable
		} else {
			points = append(points, ParallelismPoint{at, run, runnable})
		}
	}
	return points
}

// Validate checks execution invariants: spans ordered and non-overlapping
// per thread, running spans carrying a CPU, and no two threads running on
// the same CPU at the same time.
func (tl *Timeline) Validate() error {
	type cpuSpan struct {
		start, end vtime.Time
		thread     ThreadID
	}
	perCPU := make(map[int32][]cpuSpan)
	for _, th := range tl.Threads {
		var prevEnd vtime.Time
		for i, s := range th.Spans {
			if s.End < s.Start {
				return fmt.Errorf("trace: thread %d span %d: end %v before start %v", th.Info.ID, i, s.End, s.Start)
			}
			if s.Start < prevEnd {
				return fmt.Errorf("trace: thread %d span %d: overlaps previous (starts %v, prev ends %v)", th.Info.ID, i, s.Start, prevEnd)
			}
			prevEnd = s.End
			if s.State == StateRunning && s.CPU < 0 {
				return fmt.Errorf("trace: thread %d span %d: running without CPU", th.Info.ID, i)
			}
			if s.State == StateRunning && int(s.CPU) >= tl.CPUs {
				return fmt.Errorf("trace: thread %d span %d: CPU %d out of range (%d CPUs)", th.Info.ID, i, s.CPU, tl.CPUs)
			}
			if s.State == StateRunning {
				perCPU[s.CPU] = append(perCPU[s.CPU], cpuSpan{s.Start, s.End, th.Info.ID})
			}
		}
	}
	for cpu, spans := range perCPU {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				return fmt.Errorf("trace: CPU %d: threads %d and %d overlap at %v",
					cpu, spans[i-1].thread, spans[i].thread, spans[i].start)
			}
		}
	}
	return nil
}

// TimelineBuilder incrementally assembles per-thread timelines, coalescing
// adjacent spans that share a state and CPU. StartThread returns a dense
// handle that the other methods take, so recording a span or a placed
// event costs no lookup.
type TimelineBuilder struct {
	tls []*ThreadTimeline
}

// NewTimelineBuilder returns an empty builder.
func NewTimelineBuilder() *TimelineBuilder { return &TimelineBuilder{} }

// StartThread registers a thread and its creation time, returning the
// thread's handle.
func (b *TimelineBuilder) StartThread(info ThreadInfo, at vtime.Time) int {
	b.tls = append(b.tls, &ThreadTimeline{Info: info, Created: at, Ended: at})
	return len(b.tls) - 1
}

// Reserve preallocates a thread's span and event storage. events is an
// upper bound on placed events (the Simulator knows it exactly: one per
// call record plus the exit); spans is a hint.
func (b *TimelineBuilder) Reserve(h int, spans, events int) {
	th := b.tls[h]
	if cap(th.Spans) < spans {
		th.Spans = make([]Span, 0, spans)
	}
	if cap(th.Events) < events {
		th.Events = make([]PlacedEvent, 0, events)
	}
}

// AddSpan appends a state span for a thread. Zero-length spans are
// dropped; spans adjacent to an identical-state span merge.
func (b *TimelineBuilder) AddSpan(h int, s Span) {
	th := b.tls[h]
	if s.End <= s.Start {
		return
	}
	if n := len(th.Spans); n > 0 {
		last := &th.Spans[n-1]
		if last.End == s.Start && last.State == s.State && last.CPU == s.CPU && last.LWP == s.LWP {
			last.End = s.End
			if s.End > th.Ended {
				th.Ended = s.End
			}
			return
		}
	}
	th.Spans = append(th.Spans, s)
	if s.End > th.Ended {
		th.Ended = s.End
	}
}

// AddEvent appends a zeroed placed event for the thread and returns its
// slot, valid until the thread's next append, for the caller to fill in
// place: the Simulator's hot path builds each event there instead of
// copying a finished PlacedEvent.
func (b *TimelineBuilder) AddEvent(h int) *PlacedEvent {
	th := b.tls[h]
	th.Events = append(th.Events, PlacedEvent{})
	return &th.Events[len(th.Events)-1]
}

// EndThread records a thread's end time.
func (b *TimelineBuilder) EndThread(h int, at vtime.Time) {
	if th := b.tls[h]; at > th.Ended {
		th.Ended = at
	}
}

// Build assembles the Timeline. Threads appear in registration order.
func (b *TimelineBuilder) Build(program string, cpus, lwps int, duration vtime.Duration) *Timeline {
	tl := &Timeline{Program: program, CPUs: cpus, LWPs: lwps, Duration: duration}
	tl.Threads = make([]ThreadTimeline, 0, len(b.tls))
	for _, th := range b.tls {
		tl.Threads = append(tl.Threads, *th)
	}
	return tl
}
