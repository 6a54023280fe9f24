package core

import (
	"strings"
	"testing"

	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// TestSitesKeepRecordedIDs: a profile keeps no Log, yet the texts that
// name what a record resolves to -1 still print the recorded IDs, read
// from the profile's call sites. The thr_create and the thr_join (which
// completes at once, as with ESRCH) of a thread that made no call in the
// recording show its recorded ID in the timeline; a call on an undeclared
// object fails naming that object.
func TestSitesKeepRecordedIDs(t *testing.T) {
	log := forkJoinLog(t, []vtime.Duration{3 * vtime.Millisecond, 5 * vtime.Millisecond})
	// Drop every event of the second child: it stays in the thread table,
	// so main's thr_create and thr_join still name it, but it has no
	// profile.
	const silent trace.ThreadID = 5
	events := log.Events[:0]
	for _, ev := range log.Events {
		if ev.Thread != silent {
			events = append(events, ev)
		}
	}
	log.Events = events
	prof, err := trace.BuildProfile(log)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prof.Threads[silent]; ok {
		t.Fatalf("T%d still has a profile", silent)
	}
	log = nil
	res, err := SimulateProfile(prof, Machine{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var created, joined int
	for _, pe := range res.Timeline.Thread(trace.MainThread).Events {
		if pe.Event.Target != silent {
			continue
		}
		switch pe.Event.Call {
		case trace.CallThrCreate:
			created++
		case trace.CallThrJoin:
			joined++
		}
	}
	if created != 1 || joined != 1 {
		t.Errorf("timeline names T%d in %d thr_create and %d thr_join events, want 1 and 1", silent, created, joined)
	}

	undeclared := guardProfile(nil, map[trace.ThreadID][]guardCall{
		trace.MainThread: {{CPUBefore: 10, Call: trace.CallMutexLock, Object: 42}},
	})
	_, err = SimulateProfile(undeclared, Machine{CPUs: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown object 42") {
		t.Fatalf("call on an undeclared object: %v, want it named", err)
	}
}
