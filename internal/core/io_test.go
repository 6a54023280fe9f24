package core

import (
	"bytes"
	"testing"

	"vppb/internal/threadlib"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// ioProg: two I/O-bound workers and one CPU-bound worker sharing a disk.
func ioProg(p *threadlib.Process) func(*threadlib.Thread) {
	disk := p.NewDevice("disk")
	return func(th *threadlib.Thread) {
		var ids []trace.ThreadID
		for i := 0; i < 2; i++ {
			ids = append(ids, th.Create(func(w *threadlib.Thread) {
				for k := 0; k < 3; k++ {
					w.Compute(5 * vtime.Millisecond)
					disk.IO(w, 20*vtime.Millisecond)
				}
			}))
		}
		ids = append(ids, th.Create(func(w *threadlib.Thread) {
			w.Compute(60 * vtime.Millisecond)
		}))
		for _, id := range ids {
			th.Join(id)
		}
	}
}

func TestIOPredictionMatchesReference(t *testing.T) {
	log := record(t, ioProg)
	// The recorded service times ride in the log.
	var ioEvents int
	for _, ev := range log.Events {
		if ev.Call == trace.CallIO && ev.Class == trace.Before {
			ioEvents++
			if ev.Timeout != 20*vtime.Millisecond {
				t.Fatalf("recorded service = %v", ev.Timeout)
			}
		}
	}
	if ioEvents != 6 {
		t.Fatalf("io events = %d", ioEvents)
	}
	for _, cpus := range []int{1, 2, 4} {
		pred := mustSim(t, log, Machine{CPUs: cpus})
		ref := reference(t, ioProg, cpus, 0)
		closeTo(t, pred.Duration, ref, 0.02, "io prediction")
	}
}

func TestIODeviceSerializesInReplay(t *testing.T) {
	log := record(t, ioProg)
	res := mustSim(t, log, Machine{CPUs: 8})
	// Two workers x three 20ms requests on one FIFO disk: the device is
	// the bottleneck, so at least 120ms regardless of CPUs.
	if res.Duration < 120*vtime.Millisecond {
		t.Fatalf("duration = %v, device contention lost", res.Duration)
	}
}

// suspendProg exercises suspend/continue across the recording boundary.
func suspendProg(p *threadlib.Process) func(*threadlib.Thread) {
	return func(th *threadlib.Thread) {
		a := th.Create(func(w *threadlib.Thread) {
			w.Compute(60 * vtime.Millisecond)
		}, threadlib.WithName("victim"))
		th.Compute(10 * vtime.Millisecond)
		th.Suspend(a)
		th.Compute(30 * vtime.Millisecond)
		th.Continue(a)
		th.Join(a)
	}
}

func TestSuspendContinueReplay(t *testing.T) {
	log := record(t, suspendProg)
	// The suspend/continue events appear in the log with their targets.
	var sus, cont int
	for _, ev := range log.Events {
		switch {
		case ev.Call == trace.CallThrSuspend && ev.Class == trace.Before:
			sus++
			if ev.Target != 4 {
				t.Fatalf("suspend target = %d", ev.Target)
			}
		case ev.Call == trace.CallThrContinue && ev.Class == trace.Before:
			cont++
		}
	}
	if sus != 1 || cont != 1 {
		t.Fatalf("suspend/continue events = %d/%d", sus, cont)
	}
	for _, cpus := range []int{1, 2} {
		pred := mustSim(t, log, Machine{CPUs: cpus})
		ref := reference(t, suspendProg, cpus, 0)
		closeTo(t, pred.Duration, ref, 0.02, "suspend prediction")
	}
	// On 2 CPUs: victim runs 10ms, parked 30ms, then 50ms more: 90ms.
	dual := mustSim(t, log, Machine{CPUs: 2})
	closeTo(t, dual.Duration, 90*vtime.Millisecond, 0.03, "suspend timing")
}

func TestSuspendSleepingReplay(t *testing.T) {
	prog := func(p *threadlib.Process) func(*threadlib.Thread) {
		gate := p.NewSema("gate", 0)
		return func(th *threadlib.Thread) {
			a := th.Create(func(w *threadlib.Thread) {
				gate.Wait(w)
				w.Compute(10 * vtime.Millisecond)
			})
			th.Compute(5 * vtime.Millisecond)
			th.Suspend(a)
			gate.Post(th)
			th.Compute(20 * vtime.Millisecond)
			th.Continue(a)
			th.Join(a)
		}
	}
	log := record(t, prog)
	for _, cpus := range []int{1, 2} {
		pred := mustSim(t, log, Machine{CPUs: cpus})
		ref := reference(t, prog, cpus, 0)
		closeTo(t, pred.Duration, ref, 0.02, "suspend-sleeping prediction")
	}
}

// suspendDelayedWakeProg: main posts the semaphore its worker sleeps on
// and suspends the worker at once. Replayed on a multiprocessor with a
// communication delay longer than the post and suspend calls, the suspend
// lands while the cross-CPU wake is still in flight.
func suspendDelayedWakeProg(p *threadlib.Process) func(*threadlib.Thread) {
	gate := p.NewSema("gate", 0)
	return func(th *threadlib.Thread) {
		a := th.Create(func(w *threadlib.Thread) {
			gate.Wait(w)
			w.Compute(10 * ms)
		}, threadlib.WithName("sleeper"))
		th.Compute(5 * ms)
		gate.Post(th)
		th.Suspend(a)
		th.Compute(20 * ms)
		th.Continue(a)
		th.Join(a)
	}
}

// TestSuspendDuringDelayedWake: a thr_suspend that finds its target
// wake-pending cancels the in-flight wake and keeps it for thr_continue,
// so the sleeper runs again only after the continue, and replays of it
// are deterministic.
func TestSuspendDuringDelayedWake(t *testing.T) {
	log := record(t, suspendDelayedWakeProg)
	m := Machine{CPUs: 2, CommDelay: vtime.Millisecond}
	res := mustSim(t, log, m)
	var post, cont vtime.Time
	main := res.Timeline.Thread(trace.MainThread)
	for _, pe := range main.Events {
		switch pe.Event.Call {
		case trace.CallSemaPost:
			post = pe.End
		case trace.CallThrContinue:
			cont = pe.End
		}
	}
	if post == 0 || cont <= post {
		t.Fatalf("post at %v, continue at %v", post, cont)
	}
	var sleeper *trace.ThreadTimeline
	for i := range res.Timeline.Threads {
		if res.Timeline.Threads[i].Info.Name == "sleeper" {
			sleeper = &res.Timeline.Threads[i]
		}
	}
	if sleeper == nil {
		t.Fatal("no sleeper thread in the timeline")
	}
	ran := false
	for _, s := range sleeper.Spans {
		if s.State != trace.StateRunning || s.Start < post {
			continue
		}
		ran = true
		if s.Start < cont {
			t.Fatalf("sleeper runs at %v, before its continue at %v", s.Start, cont)
		}
	}
	if !ran {
		t.Fatal("sleeper never ran after the post")
	}
	again := mustSim(t, log, m)
	a, err := trace.MarshalTimeline(res.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.MarshalTimeline(again.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two replays differ")
	}
}
