package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"vppb/internal/vtime"
)

// This file implements log recovery. A log that reaches the Simulator over
// the wire can be truncated, reordered, clock-skewed or hand-edited;
// Repair walks it once in recording order through a fixed pipeline of
// named stages, writing one copy of its events, so that Validate →
// Repair → Validate either converges on a structurally sound log or fails
// with a typed error naming the unrecoverable record.

// RepairStrategy names one stage of the repair pipeline; it labels each
// mutation in a RepairReport.
type RepairStrategy string

// Repair strategies, in pipeline order.
const (
	// RepairSort restores the canonical event order (recording sequence
	// for processing, time-then-sequence for the final log) after events
	// were shuffled in transit.
	RepairSort RepairStrategy = "sort"
	// RepairDropDuplicates removes events whose sequence number was
	// already seen (duplicated records).
	RepairDropDuplicates RepairStrategy = "drop-duplicates"
	// RepairClampTimes forces timestamps monotone in recording order
	// (clock regressions) and widens the header window to cover every
	// event.
	RepairClampTimes RepairStrategy = "clamp-times"
	// RepairDropOrphans drops events with dangling thread/object
	// references, invalid calls or classes, and AFTER events with no
	// matching BEFORE.
	RepairDropOrphans RepairStrategy = "drop-orphans"
	// RepairSynthesize fabricates the missing AFTER record for calls left
	// open by truncation or record loss, so every BEFORE closes.
	RepairSynthesize RepairStrategy = "synthesize-afters"
)

// RepairMutation is one change Repair made to the log.
type RepairMutation struct {
	Strategy RepairStrategy
	// Seq is the recorded sequence number of the affected event, or -1
	// for log-level changes (header window, global reorder, renumbering).
	Seq    int64
	Detail string
}

// RepairReport lists every mutation a Repair pass performed.
type RepairReport struct {
	Mutations   []RepairMutation
	Dropped     int
	Clamped     int
	Synthesized int
	Reordered   int
}

// Empty reports whether the repair changed nothing.
func (r *RepairReport) Empty() bool { return len(r.Mutations) == 0 }

// Summary is a one-line account of the repair.
func (r *RepairReport) Summary() string {
	if r.Empty() {
		return "log unchanged"
	}
	return fmt.Sprintf("%d mutations (%d dropped, %d clamped, %d synthesized, %d reordered)",
		len(r.Mutations), r.Dropped, r.Clamped, r.Synthesized, r.Reordered)
}

// String renders the full mutation list, one line per change.
func (r *RepairReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "repair: %s\n", r.Summary())
	for _, m := range r.Mutations {
		if m.Seq >= 0 {
			fmt.Fprintf(&b, "  [%s] seq %d: %s\n", m.Strategy, m.Seq, m.Detail)
		} else {
			fmt.Fprintf(&b, "  [%s] %s\n", m.Strategy, m.Detail)
		}
	}
	return b.String()
}

// mutations is one stage's share of a report, in the order the walk
// produced it.
type mutations []RepairMutation

func (m *mutations) add(s RepairStrategy, seq int64, format string, args ...any) {
	*m = append(*m, RepairMutation{Strategy: s, Seq: seq, Detail: fmt.Sprintf(format, args...)})
}

// UnrecoverableError reports that repair could not produce a valid log.
// It names the record Validate still rejects.
type UnrecoverableError struct {
	// Index is the position of the offending event in the repaired log,
	// or -1 when the violation is log-level.
	Index int
	// Event is a copy of the offending event when Index >= 0.
	Event *Event
	// Err is the underlying Validate failure.
	Err error
}

func (e *UnrecoverableError) Error() string {
	if e.Event != nil {
		return fmt.Sprintf("trace: unrecoverable log: event %d (seq %d, T%d %s %s at %v): %v",
			e.Index, e.Event.Seq, e.Event.Thread, e.Event.Class, e.Event.Call, e.Event.Time, e.Err)
	}
	return fmt.Sprintf("trace: unrecoverable log: %v", e.Err)
}

func (e *UnrecoverableError) Unwrap() error { return e.Err }

// Repair returns a repaired copy of l plus a report of every mutation.
// The result either passes Validate or Repair returns a
// *UnrecoverableError; l itself is never modified.
//
// The stages run in one walk over the events in recording (Seq) order:
// each event is dropped as a duplicate, clamped, then dropped as an orphan
// or paired, and what survives, with the AFTER records synthesized for
// it, goes into the one event slice Repair allocates. The report lists the
// mutations stage by stage: sort, duplicates, clamps, then orphans and
// synthesized AFTERs in walk order, then renumbering.
func Repair(l *Log) (*Log, *RepairReport, error) {
	c := &Log{
		Header:  l.Header,
		Threads: append([]ThreadInfo(nil), l.Threads...),
		Objects: append([]ObjectInfo(nil), l.Objects...),
	}
	rep := &RepairReport{}
	// Each stage's mutations, joined in pipeline order at the end; walk
	// takes orphans, synthesized AFTERs and renumbering in walk order.
	var sorted, dups, clamps, walk mutations

	// Recover recording order first: pairing and clock invariants are
	// defined by the order events were recorded (Seq), not by their
	// possibly shuffled positions or corrupted timestamps. A shuffled log
	// is walked through a permutation sorted by (Seq, position): its
	// stable order by Seq.
	n := len(l.Events)
	for i := 1; i < n; i++ {
		if l.Events[i].Seq < l.Events[i-1].Seq {
			rep.Reordered++
		}
	}
	var order []int32
	if rep.Reordered > 0 {
		order = make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(l.Events[a].Seq, l.Events[b].Seq); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		sorted.add(RepairSort, -1, "restored recording order (%d out-of-order boundaries)", rep.Reordered)
	}

	ix := newLogIndex(c)
	// open holds the position in out of each slot's Before awaiting its
	// After, or -1.
	open := make([]int, len(ix.befores))
	for s := range open {
		open[s] = -1
	}
	// Room for every event and one synthesized AFTER per slot, as much as
	// a truncation or a lost record needs; a log that lost more grows it.
	out := make([]Event, 0, n+len(open))
	renumber := false
	drop := func(seq int64, format string, args ...any) {
		rep.Dropped++
		walk.add(RepairDropOrphans, seq, format, args...)
		renumber = true
	}
	synthAfter := func(before Event, at vtime.Time) {
		after := before
		after.Class = After
		after.Time = at
		rep.Synthesized++
		walk.add(RepairSynthesize, before.Seq, "synthesized AFTER %s for T%d at %v", before.Call, before.Thread, at)
		out = append(out, after)
		renumber = true
	}

	prev := c.Header.Start
	var prevSeq int64
	// Consecutive events mostly come from one thread: its slot is looked
	// up once per run.
	tid, slot := ThreadID(0), int32(-1)
	for k := 0; k < n; k++ {
		i := k
		if order != nil {
			i = int(order[k])
		}
		ev := l.Events[i]

		// In Seq order a duplicate follows the event it copies; the first
		// occurrence wins.
		if k > 0 && ev.Seq == prevSeq {
			rep.Dropped++
			dups.add(RepairDropDuplicates, ev.Seq, "dropped duplicate of T%d %s %s", ev.Thread, ev.Class, ev.Call)
			continue
		}
		prevSeq = ev.Seq

		// Force timestamps monotone, widening the header window back to
		// the first event.
		if k == 0 && ev.Time < c.Header.Start {
			clamps.add(RepairClampTimes, -1, "moved header start %v back to first event at %v", c.Header.Start, ev.Time)
			c.Header.Start = ev.Time
			prev = ev.Time
		}
		if ev.Time < prev {
			rep.Clamped++
			clamps.add(RepairClampTimes, ev.Seq, "clamped regressed time %v to %v", ev.Time, prev)
			ev.Time = prev
		}
		prev = ev.Time

		// Resolve dangling references and BEFORE/AFTER pairing.
		if ev.Call == CallNone || ev.Call >= numCalls {
			drop(ev.Seq, "dropped event with invalid call %d", uint8(ev.Call))
			continue
		}
		if ev.Class != Before && ev.Class != After {
			drop(ev.Seq, "dropped event with invalid class %d", uint8(ev.Class))
			continue
		}
		if ev.Thread != tid || slot < 0 {
			s, known := ix.slots[ev.Thread]
			if !known {
				drop(ev.Seq, "dropped event of unknown thread %d", ev.Thread)
				continue
			}
			tid, slot = ev.Thread, s
		}
		if ev.Object != 0 && ix.object(ev.Object) < 0 {
			drop(ev.Seq, "dropped %s %s referencing unknown object %d", ev.Class, ev.Call, ev.Object)
			continue
		}
		if ev.Mutex != 0 && ix.object(ev.Mutex) < 0 {
			drop(ev.Seq, "dropped %s %s referencing unknown mutex %d", ev.Class, ev.Call, ev.Mutex)
			continue
		}
		if ev.Class == Before {
			if o := open[slot]; o >= 0 {
				if out[o].Call == CallThrExit {
					// Nothing legitimately follows a thread's exit.
					drop(ev.Seq, "dropped event after thr_exit of T%d", ev.Thread)
					continue
				}
				// The AFTER for the open call was lost; close it just
				// before this event so the pairing invariant holds.
				synthAfter(out[o], ev.Time)
				open[slot] = -1
			}
			if pairsWithAfter(ev.Call) {
				open[slot] = len(out)
			}
		} else if o := open[slot]; o < 0 || out[o].Call != ev.Call {
			drop(ev.Seq, "dropped AFTER %s without matching BEFORE", ev.Call)
			continue
		} else {
			open[slot] = -1
		}
		out = append(out, ev)
	}
	if prev > c.Header.End {
		clamps.add(RepairClampTimes, -1, "extended header end %v to last event at %v", c.Header.End, prev)
		c.Header.End = prev
	}

	// Truncation cut the log while these calls were in flight: close them
	// at the end of the recording, which the clamp widened to cover every
	// event, in thread order for determinism. An
	// open thr_exit is legitimate (it never completes for the exiting
	// thread).
	var tails []int
	for s, o := range open {
		if o >= 0 && out[o].Call != CallThrExit {
			tails = append(tails, s)
		}
	}
	if len(tails) > 0 {
		slices.SortFunc(tails, func(a, b int) int { return cmp.Compare(c.threadID(a), c.threadID(b)) })
		for _, s := range tails {
			synthAfter(out[open[s]], c.Header.End)
		}
	}

	// Restore canonical sequence numbering after insertions or deletions
	// changed the event list's shape. Clamped times are monotone in Seq
	// order and every synthesized AFTER lands at or after its
	// predecessor, so out is already in (time, seq) order.
	if renumber {
		for i := range out {
			out[i].Seq = int64(i)
		}
		walk.add(RepairSort, -1, "renumbered %d events", len(out))
	}
	c.Events = out
	rep.Mutations = slices.Concat(sorted, dups, clamps, walk)

	if _, idx, err := c.validate(); err != nil {
		ue := &UnrecoverableError{Index: idx, Err: err}
		if idx >= 0 && idx < len(c.Events) {
			ev := c.Events[idx]
			ue.Event = &ev
		}
		return nil, rep, ue
	}
	return c, rep, nil
}
