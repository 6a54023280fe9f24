package trace

import (
	"errors"
	"testing"

	"vppb/internal/vtime"
)

func TestBuildProfileExample(t *testing.T) {
	l := exampleLog()
	p, err := BuildProfile(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Threads) != 3 {
		t.Fatalf("threads = %d", len(p.Threads))
	}

	main := p.Threads[1]
	// main: start_collect, create, create, join(4), join(5), exit.
	wantCalls := []Call{CallStartCollect, CallThrCreate, CallThrCreate, CallThrJoin, CallThrJoin, CallThrExit}
	if len(main.Calls) != len(wantCalls) {
		t.Fatalf("main calls = %d, want %d", len(main.Calls), len(wantCalls))
	}
	for i, c := range wantCalls {
		if main.Calls[i].Call != c {
			t.Fatalf("main call %d = %v, want %v", i, main.Calls[i].Call, c)
		}
	}
	// First create: 50 ms of setup before it.
	if main.Calls[1].CPUBefore != 50*vtime.Millisecond {
		t.Fatalf("create CPUBefore = %v", main.Calls[1].CPUBefore)
	}
	// Its cost was 10 ms and it did not block.
	if main.Calls[1].CallCPU != 10*vtime.Millisecond || main.Calls[1].BlockedInLog {
		t.Fatalf("create CallCPU = %v blocked=%v", main.Calls[1].CallCPU, main.Calls[1].BlockedInLog)
	}
	// join(4) blocked in the log: T4 and T5 events intervene.
	if !main.Calls[3].BlockedInLog {
		t.Fatal("join(thr_a) should be marked blocked")
	}
	if main.Calls[3].JoinedTarget != 4 {
		t.Fatalf("join reaped %d, want 4", main.Calls[3].JoinedTarget)
	}
	// join(5) did not block: T5 already exited.
	if main.Calls[4].BlockedInLog {
		t.Fatal("join(thr_b) should not be marked blocked")
	}

	// T4 ran 400-150 = 250 ms before its exit.
	t4 := p.Threads[4]
	if len(t4.Calls) != 1 || t4.Calls[0].Call != CallThrExit {
		t.Fatalf("t4 calls = %+v", t4.Calls)
	}
	if t4.Calls[0].CPUBefore != 250*vtime.Millisecond {
		t.Fatalf("t4 burst = %v, want 250ms", t4.Calls[0].CPUBefore)
	}
	// T5 ran 530-400 = 130 ms.
	if got := p.Threads[5].Calls[0].CPUBefore; got != 130*vtime.Millisecond {
		t.Fatalf("t5 burst = %v, want 130ms", got)
	}
}

func TestBuildProfileDeductsProbeCost(t *testing.T) {
	l := exampleLog()
	l.Header.ProbeCost = 1000 // 1 ms per event
	p, err := BuildProfile(l)
	if err != nil {
		t.Fatal(err)
	}
	// T4's burst shrinks by one probe cost.
	if got := p.Threads[4].Calls[0].CPUBefore; got != 249*vtime.Millisecond {
		t.Fatalf("t4 burst = %v, want 249ms", got)
	}
}

func TestBuildProfileClampsNegativeGaps(t *testing.T) {
	l := exampleLog()
	l.Header.ProbeCost = vtime.Duration(10 * vtime.Second) // absurd
	p, err := BuildProfile(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range p.Threads {
		for _, c := range tp.Calls {
			if c.CPUBefore < 0 || c.CallCPU < 0 {
				t.Fatal("negative burst after clamping")
			}
		}
	}
}

func TestBuildProfileRejectsMultiprocessorLogs(t *testing.T) {
	l := exampleLog()
	l.Header.CPUs = 4
	_, err := BuildProfile(l)
	if err == nil {
		t.Fatal("expected rejection of 4-CPU log")
	}
	// Repair cannot make a multiprocessor log profilable.
	var verr *ValidationError
	if errors.As(err, &verr) {
		t.Fatalf("4-CPU log reported as a validation error: %v", err)
	}
	l.Header.CPUs = 1
	l.Header.LWPs = 2
	if _, err := BuildProfile(l); err == nil {
		t.Fatal("expected rejection of 2-LWP log")
	}
}

func TestBuildProfileRejectsInvalidLog(t *testing.T) {
	l := exampleLog()
	l.Events[2].Time = 1 // break monotonicity
	_, err := BuildProfile(l)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("BuildProfile error %v, want a *ValidationError", err)
	}
	if want := l.Validate(); err.Error() != want.Error() {
		t.Fatalf("BuildProfile error %q, want Validate's %q", err, want)
	}
}

func TestTimedWaitTimeoutGetsNoCPU(t *testing.T) {
	l := &Log{
		Header: Header{Program: "tw", CPUs: 1, LWPs: 1, Start: 0, End: 300_000},
		Threads: []ThreadInfo{
			{ID: 1, Name: "main", BoundCPU: -1},
		},
		Objects: []ObjectInfo{
			{ID: 1, Kind: ObjCond, Name: "cv"},
			{ID: 2, Kind: ObjMutex, Name: "m"},
		},
	}
	add := func(at int64, class EventClass, call Call, obj ObjectID, ok bool) {
		l.Events = append(l.Events, Event{
			Seq: int64(len(l.Events)), Time: vtime.Time(at), Thread: 1,
			Class: class, Call: call, Object: obj, OK: ok, Timeout: 200_000,
		})
	}
	add(0, Before, CallStartCollect, 0, false)
	add(50_000, Before, CallCondTimedWait, 1, false)
	add(250_000, After, CallCondTimedWait, 1, false) // timed out after 200ms idle
	add(300_000, Before, CallThrExit, 0, false)
	p, err := BuildProfile(l)
	if err != nil {
		t.Fatal(err)
	}
	calls := p.Threads[1].Calls
	tw := calls[1]
	if tw.Call != CallCondTimedWait {
		t.Fatalf("call order wrong: %+v", calls)
	}
	if tw.CallCPU != 0 {
		t.Fatalf("timed-out wait charged %v CPU", tw.CallCPU)
	}
	if tw.OK {
		t.Fatal("OK should be false for a timeout")
	}
	if tw.Timeout != 200_000 {
		t.Fatalf("timeout = %v", tw.Timeout)
	}
}

func TestProfileTotalCPUMatchesWallClockMinusIdle(t *testing.T) {
	// With zero probe cost and no idling, total attributed CPU equals the
	// recording duration.
	l := exampleLog()
	p, err := BuildProfile(l)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.TotalCPU(); got != l.Duration() {
		t.Fatalf("TotalCPU = %v, duration = %v", got, l.Duration())
	}
}

func TestThreadProfileTotalCPU(t *testing.T) {
	tp := &ThreadProfile{Calls: []CallRecord{
		{CPUBefore: 100, CallCPU: 5},
		{CPUBefore: 200, CallCPU: 10},
	}}
	if got := tp.TotalCPU(); got != 315 {
		t.Fatalf("TotalCPU = %v", got)
	}
}
