package trace

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vppb/internal/vtime"
)

// repairFixture builds a small Validate-passing log: main creates a worker
// that takes and releases a mutex, then joins it.
func repairFixture() *Log {
	l := &Log{
		Header: Header{Program: "repair-fixture", CPUs: 1, LWPs: 1, Start: 0, End: 800_000},
		Threads: []ThreadInfo{
			{ID: 1, Name: "main", Func: "main", BoundCPU: -1, Prio: 29},
			{ID: 4, Name: "thr_a", Func: "thread", BoundCPU: -1, Prio: 29},
		},
		Objects: []ObjectInfo{
			{ID: 1, Kind: ObjMutex, Name: "lock"},
		},
	}
	add := func(at int64, tid ThreadID, class EventClass, call Call, obj ObjectID, target ThreadID) {
		l.Events = append(l.Events, Event{
			Seq: int64(len(l.Events)), Time: vtime.Time(at), Thread: tid,
			Class: class, Call: call, Object: obj, Target: target,
		})
	}
	add(0, 1, Before, CallStartCollect, 0, 0)
	add(50_000, 1, Before, CallThrCreate, 0, 4)    // 1
	add(60_000, 1, After, CallThrCreate, 0, 4)     // 2
	add(100_000, 4, Before, CallMutexLock, 1, 0)   // 3
	add(110_000, 4, After, CallMutexLock, 1, 0)    // 4
	add(150_000, 4, Before, CallMutexUnlock, 1, 0) // 5
	add(151_000, 4, After, CallMutexUnlock, 1, 0)  // 6
	add(200_000, 1, Before, CallThrJoin, 0, 4)     // 7
	add(400_000, 4, Before, CallThrExit, 0, 0)     // 8
	add(401_000, 1, After, CallThrJoin, 0, 4)      // 9
	add(800_000, 1, Before, CallThrExit, 0, 0)     // 10
	return l
}

// diffRepair runs Repair and its reference implementation on l and
// describes the first difference between their logs, reports or errors.
func diffRepair(l *Log) error {
	got, rep, err := Repair(l)
	want, orep, oerr := oracleRepair(l)
	if !reflect.DeepEqual(got, want) {
		if got == nil || want == nil {
			return fmt.Errorf("repaired log %v; oracle %v (error %v; oracle %v)", got != nil, want != nil, err, oerr)
		}
		for i := range min(len(got.Events), len(want.Events)) {
			if got.Events[i] != want.Events[i] {
				return fmt.Errorf("repaired event %d: %+v; oracle %+v", i, got.Events[i], want.Events[i])
			}
		}
		return fmt.Errorf("repaired log differs from the oracle's: header %+v, %d events; oracle %+v, %d events",
			got.Header, len(got.Events), want.Header, len(want.Events))
	}
	if !reflect.DeepEqual(rep, orep) {
		return fmt.Errorf("report differs from the oracle's:\n%s\noracle:\n%s", rep, orep)
	}
	if !reflect.DeepEqual(err, oerr) {
		return fmt.Errorf("error %v; oracle %v", err, oerr)
	}
	return nil
}

func mustRepair(t *testing.T, l *Log) (*Log, *RepairReport) {
	t.Helper()
	repaired, rep, err := Repair(l)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if err := repaired.Validate(); err != nil {
		t.Fatalf("repaired log fails Validate: %v\n%s", err, rep)
	}
	return repaired, rep
}

func TestRepairFixtureValid(t *testing.T) {
	if err := repairFixture().Validate(); err != nil {
		t.Fatalf("fixture must start valid: %v", err)
	}
}

func TestRepairValidLogUnchanged(t *testing.T) {
	l := repairFixture()
	repaired, rep := mustRepair(t, l)
	if !rep.Empty() {
		t.Fatalf("valid log was mutated:\n%s", rep)
	}
	logsEqual(t, l, repaired)
	if rep.Summary() != "log unchanged" {
		t.Fatalf("Summary = %q", rep.Summary())
	}
}

func TestRepairDoesNotMutateInput(t *testing.T) {
	l := repairFixture()
	l.Events[5].Time = l.Events[4].Time.Add(-vtime.Duration(10_000)) // regress
	before := l.Events[5].Time
	mustRepair(t, l)
	if l.Events[5].Time != before {
		t.Fatal("Repair mutated its input log")
	}
}

func TestRepairSortRestoresShuffle(t *testing.T) {
	l := repairFixture()
	l.Events[3], l.Events[6] = l.Events[6], l.Events[3]
	if l.Validate() == nil {
		t.Fatal("shuffled log unexpectedly valid")
	}
	repaired, rep := mustRepair(t, l)
	if rep.Reordered == 0 {
		t.Fatalf("expected reorder mutations, got:\n%s", rep)
	}
	logsEqual(t, repairFixture(), repaired)
}

func TestRepairDropDuplicates(t *testing.T) {
	l := repairFixture()
	l.Events = append(l.Events[:5:5], l.Events[4:]...) // duplicate event 4
	repaired, rep := mustRepair(t, l)
	if rep.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1\n%s", rep.Dropped, rep)
	}
	logsEqual(t, repairFixture(), repaired)
}

func TestRepairClampRegressedClock(t *testing.T) {
	l := repairFixture()
	want := l.Events[4].Time
	l.Events[5].Time = l.Events[4].Time.Add(-vtime.Duration(30_000))
	repaired, rep := mustRepair(t, l)
	if rep.Clamped != 1 {
		t.Fatalf("Clamped = %d, want 1\n%s", rep.Clamped, rep)
	}
	if got := repaired.Events[5].Time; got != want {
		t.Fatalf("clamped time = %v, want %v", got, want)
	}
}

func TestRepairExtendsHeaderWindow(t *testing.T) {
	l := repairFixture()
	last := len(l.Events) - 1
	l.Events[last].Time = l.Header.End.Add(vtime.Duration(5_000))
	repaired, rep := mustRepair(t, l)
	if repaired.Header.End != l.Events[last].Time {
		t.Fatalf("header end = %v, want %v", repaired.Header.End, l.Events[last].Time)
	}
	if rep.Empty() {
		t.Fatal("window extension not reported")
	}
}

func TestRepairDropsUnknownThread(t *testing.T) {
	l := repairFixture()
	l.Events[4].Thread = 999 // AFTER mutex_lock now dangles
	_, rep := mustRepair(t, l)
	if rep.Dropped == 0 {
		t.Fatalf("expected dropped events:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "unknown thread 999") {
		t.Fatalf("report does not name the dangling thread:\n%s", rep)
	}
}

func TestRepairDropsUnknownObject(t *testing.T) {
	l := repairFixture()
	l.Events[3].Object = 777
	_, rep := mustRepair(t, l)
	if !strings.Contains(rep.String(), "unknown object 777") {
		t.Fatalf("report does not name the dangling object:\n%s", rep)
	}
}

func TestRepairSynthesizesMissingAfter(t *testing.T) {
	l := repairFixture()
	// Remove the AFTER thr_create of T4 (index 2).
	l.Events = append(l.Events[:2:2], l.Events[3:]...)
	repaired, rep := mustRepair(t, l)
	if rep.Synthesized != 1 {
		t.Fatalf("Synthesized = %d, want 1\n%s", rep.Synthesized, rep)
	}
	found := false
	for _, ev := range repaired.Events {
		if ev.Class == After && ev.Call == CallThrCreate && ev.Target == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("synthesized AFTER thr_create(T4) not present")
	}
}

func TestRepairTruncatedTail(t *testing.T) {
	l := repairFixture()
	l.Events = l.Events[:4] // cut with mutex_lock of T4 still open
	repaired, rep := mustRepair(t, l)
	if rep.Synthesized == 0 {
		t.Fatalf("expected synthesized AFTERs for the open calls:\n%s", rep)
	}
	if n := len(repaired.Events); n < 4 {
		t.Fatalf("repaired log shrank to %d events", n)
	}
}

func TestRepairWithoutSynthesisFailsTyped(t *testing.T) {
	l := repairFixture()
	// The clamp moves the header start back to the first event, but
	// validation starts the clock at 0.
	l.Events[0].Time = -1
	_, _, err := Repair(l)
	if err == nil {
		t.Fatal("expected an error for a first event before time 0")
	}
	var ue *UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("error is %T, want *UnrecoverableError", err)
	}
	if ue.Index != 0 || ue.Event == nil || ue.Event.Time != -1 {
		t.Fatalf("error names index %d, event %+v; want the first event", ue.Index, ue.Event)
	}
	if !strings.Contains(ue.Error(), "unrecoverable log") {
		t.Fatalf("error text: %v", ue)
	}
}

func TestRepairEventAfterThrExitDropped(t *testing.T) {
	l := repairFixture()
	// Append a call by T4 after its thr_exit.
	l.Events = append(l.Events, Event{
		Seq: int64(len(l.Events)), Time: 800_000, Thread: 4,
		Class: Before, Call: CallThrYield,
	})
	_, rep := mustRepair(t, l)
	if !strings.Contains(rep.String(), "after thr_exit") {
		t.Fatalf("report does not mention the post-exit event:\n%s", rep)
	}
}

func TestRepairReportString(t *testing.T) {
	l := repairFixture()
	l.Events[5].Time = l.Events[4].Time.Add(-vtime.Duration(1_000))
	_, rep := mustRepair(t, l)
	s := rep.String()
	if !strings.Contains(s, "[clamp-times]") || !strings.Contains(s, "seq 5") {
		t.Fatalf("report lacks strategy/seq detail:\n%s", s)
	}
}
