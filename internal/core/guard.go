package core

import (
	"fmt"
	"slices"
	"strings"

	"vppb/internal/sched"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// This file implements the simulator guardrails: a corrupted or repaired
// log must never hang the Simulator. Every abnormal termination is a typed
// error carrying a structured diagnostic — a wait-for graph for deadlock,
// a dispatch-window report for livelock, and the exhausted budget for the
// watchdog limits — instead of a bare one-liner.

// WaitEdge is one thread's position in the deadlock wait-for graph:
// thread → object (or joined thread) → holder(s).
type WaitEdge struct {
	// Thread is the waiting thread.
	Thread trace.ThreadID
	// State is the thread's scheduling state ("sleeping", "runnable", ...).
	State string
	// Call is the thread-library call the thread is stuck in ("?" when
	// its profile is exhausted).
	Call string
	// Before marks a thread stopped in the CPU burst before Call, which
	// it has not reached (a thr_suspend took it off its CPU mid-burst).
	Before bool
	// Object names what the thread waits on: `mutex "lock"`,
	// `cond "empty"`, `thread T5` for a join, or "" when unknown.
	Object string
	// Holders are the threads currently holding the waited-on object
	// (mutex owner, rwlock writer or readers, join target). Empty when
	// the object has no owner — e.g. a condition nobody will signal.
	Holders []trace.ThreadID
}

func (w WaitEdge) String() string {
	var b strings.Builder
	at := "in"
	if w.Before {
		at = "before"
	}
	fmt.Fprintf(&b, "T%d (%s %s %s)", w.Thread, w.State, at, w.Call)
	if w.Object != "" {
		fmt.Fprintf(&b, " -> %s", w.Object)
		switch len(w.Holders) {
		case 0:
			b.WriteString(" (no holder)")
		default:
			b.WriteString(" held by")
			for _, h := range w.Holders {
				fmt.Fprintf(&b, " T%d", h)
			}
		}
	}
	return b.String()
}

// DeadlockError reports a simulation in which live threads remain but no
// event can ever fire again. Edges hold the full wait-for graph.
type DeadlockError struct {
	At    vtime.Time
	Edges []WaitEdge
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: simulation deadlock at %v; wait-for graph:", e.At)
	for _, w := range e.Edges {
		b.WriteString("\n  ")
		b.WriteString(w.String())
	}
	return b.String()
}

// LivelockError reports that the simulator dispatched Window events
// without virtual time advancing — the replay is spinning.
type LivelockError struct {
	At     vtime.Time
	Window int
	// Dispatches counts the events handled at the stuck instant, by kind.
	Dispatches map[string]int64
	// Threads summarizes each live thread ("T4 running in mutex_lock").
	Threads []string
}

func (e *LivelockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: simulation livelock: virtual time stuck at %v for %d dispatches (", e.At, e.Window)
	for i, kind := range sevKindNames {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", kind, e.Dispatches[kind])
	}
	b.WriteString(")")
	if len(e.Threads) > 0 {
		b.WriteString("; threads: ")
		b.WriteString(strings.Join(e.Threads, ", "))
	}
	return b.String()
}

// BudgetError reports that a simulation exceeded a configured watchdog
// budget (Machine.MaxSimEvents or Machine.MaxVirtualTime).
type BudgetError struct {
	// Kind is "events" or "virtual-time".
	Kind string
	// Limit is the configured budget: an event count for "events",
	// microseconds for "virtual-time".
	Limit int64
	// At is the virtual time the budget was exhausted.
	At vtime.Time
	// Events is the number of probe events simulated so far.
	Events int64
}

func (e *BudgetError) Error() string {
	switch e.Kind {
	case "events":
		return fmt.Sprintf("core: simulation exceeded the %d-event budget at %v", e.Limit, e.At)
	default:
		return fmt.Sprintf("core: simulation exceeded the %v virtual-time budget (%d events simulated)",
			vtime.Duration(e.Limit), e.Events)
	}
}

var sevKindNames = [...]string{"burst", "slice", "timer", "wake", "iodone"}

// Deadlock builds the wait-for graph over every live thread, in
// ascending thread-ID order (the arena's order).
func (e *sengine) Deadlock() error {
	s := (*sim)(e)
	d := &DeadlockError{At: s.now}
	for i := range s.threads {
		t := &s.threads[i]
		if t.State == sched.Zombie || t.State == sched.NotStarted {
			continue
		}
		w := WaitEdge{Thread: t.id(), State: t.State.String(), Call: "?"}
		r := t.rec()
		if r != nil {
			w.Call = r.Call.String()
			w.Before = t.Stage == sched.StageCompute
		}
		switch {
		case s.so.WaitingOn(t.TI) != nilIdx:
			oi := s.so.WaitingOn(t.TI)
			info := s.prof.Objects[oi]
			w.Object = fmt.Sprintf("%s %q", info.Kind, info.Name)
			for _, hi := range s.so.AppendHolders(nil, oi) {
				w.Holders = append(w.Holders, s.threads[hi].id())
			}
			slices.Sort(w.Holders)
		case r != nil && r.Call == trace.CallThrJoin:
			if id := s.prof.Site(r).Target; id != 0 {
				w.Object = fmt.Sprintf("thread T%d", id)
				w.Holders = []trace.ThreadID{id}
			} else {
				w.Object = "thread <any>"
			}
		case t.Suspended:
			w.Object = "thr_continue"
		}
		d.Edges = append(d.Edges, w)
	}
	return d
}

// livelockError snapshots the dispatch window and thread states.
func (s *sim) livelockError(counts [len(sevKindNames)]int64, window int) error {
	e := &LivelockError{
		At:         s.now,
		Window:     window,
		Dispatches: make(map[string]int64, len(sevKindNames)),
	}
	for i, n := range counts {
		e.Dispatches[sevKindNames[i]] = n
	}
	for i := range s.threads {
		t := &s.threads[i]
		if t.State == sched.Zombie || t.State == sched.NotStarted {
			continue
		}
		what := "?"
		if r := t.rec(); r != nil {
			what = r.Call.String()
		}
		e.Threads = append(e.Threads, fmt.Sprintf("T%d %s in %s", t.id(), t.State, what))
	}
	return e
}
