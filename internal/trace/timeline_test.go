package trace

import (
	"testing"

	"vppb/internal/vtime"
)

func buildSmallTimeline() *Timeline {
	b := NewTimelineBuilder()
	h1 := b.StartThread(ThreadInfo{ID: 1, Name: "main", BoundCPU: -1}, 0)
	h4 := b.StartThread(ThreadInfo{ID: 4, Name: "w", BoundCPU: -1}, 10)
	b.AddSpan(h1, Span{Start: 0, End: 100, State: StateRunning, CPU: 0, LWP: 0})
	b.AddSpan(h1, Span{Start: 100, End: 200, State: StateBlocked, CPU: -1, LWP: -1})
	b.AddSpan(h1, Span{Start: 200, End: 300, State: StateRunning, CPU: 0, LWP: 0})
	b.AddSpan(h4, Span{Start: 10, End: 100, State: StateRunnable, CPU: -1, LWP: -1})
	b.AddSpan(h4, Span{Start: 100, End: 200, State: StateRunning, CPU: 1, LWP: 1})
	*b.AddEvent(h4) = PlacedEvent{
		Event: Event{Thread: 4, Call: CallThrExit, Time: 200},
		CPU:   1, Start: 200, End: 200,
	}
	b.EndThread(h4, 200)
	b.EndThread(h1, 300)
	return b.Build("t", 2, 2, 300)
}

func TestTimelineBasics(t *testing.T) {
	tl := buildSmallTimeline()
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tl.Thread(1) == nil || tl.Thread(4) == nil || tl.Thread(9) != nil {
		t.Fatal("Thread lookup wrong")
	}
	main := tl.Thread(1)
	if main.WorkTime() != 200 {
		t.Fatalf("main WorkTime = %v", main.WorkTime())
	}
	if main.TotalTime() != 300 {
		t.Fatalf("main TotalTime = %v", main.TotalTime())
	}
	w := tl.Thread(4)
	if w.WorkTime() != 100 || w.TotalTime() != 190 {
		t.Fatalf("w WorkTime=%v TotalTime=%v", w.WorkTime(), w.TotalTime())
	}
	if len(w.Events) != 1 {
		t.Fatalf("w events = %d", len(w.Events))
	}
}

func TestStateAt(t *testing.T) {
	tl := buildSmallTimeline()
	main := tl.Thread(1)
	cases := []struct {
		at    vtime.Time
		state ThreadState
		ok    bool
	}{
		{0, StateRunning, true},
		{50, StateRunning, true},
		{150, StateBlocked, true},
		{250, StateRunning, true},
		{300, StateBlocked, false}, // past the end
	}
	for _, c := range cases {
		s, ok := main.StateAt(c.at)
		if ok != c.ok || (ok && s != c.state) {
			t.Errorf("StateAt(%v) = %v,%v want %v,%v", c.at, s, ok, c.state, c.ok)
		}
	}
}

func TestSpanCoalescing(t *testing.T) {
	b := NewTimelineBuilder()
	h1 := b.StartThread(ThreadInfo{ID: 1, BoundCPU: -1}, 0)
	b.AddSpan(h1, Span{Start: 0, End: 10, State: StateRunning, CPU: 0})
	b.AddSpan(h1, Span{Start: 10, End: 20, State: StateRunning, CPU: 0})
	b.AddSpan(h1, Span{Start: 20, End: 30, State: StateRunning, CPU: 1}) // CPU change: no merge
	b.AddSpan(h1, Span{Start: 30, End: 30, State: StateBlocked})         // zero length: dropped
	tl := b.Build("t", 2, 2, 30)
	spans := tl.Thread(1).Spans
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2 (coalesced + cpu-change)", len(spans))
	}
	if spans[0].Start != 0 || spans[0].End != 20 {
		t.Fatalf("coalesced span = %+v", spans[0])
	}
}

func TestParallelismSteps(t *testing.T) {
	tl := buildSmallTimeline()
	pts := tl.Parallelism()
	if len(pts) == 0 {
		t.Fatal("no parallelism points")
	}
	// At t in [0,10): 1 running, 0 runnable. [10,100): 1 running 1 runnable.
	// [100,200): 1 running (T4), 0 runnable. [200,300): 1 running (T1).
	check := func(at vtime.Time, wantRun, wantRunnable int) {
		t.Helper()
		run, runnable := -1, -1
		for _, p := range pts {
			if p.Time <= at {
				run, runnable = p.Running, p.Runnable
			}
		}
		if run != wantRun || runnable != wantRunnable {
			t.Errorf("at %v: running=%d runnable=%d, want %d/%d (points %+v)",
				at, run, runnable, wantRun, wantRunnable, pts)
		}
	}
	check(5, 1, 0)
	check(50, 1, 1)
	check(150, 1, 0)
	check(250, 1, 0)
}

func TestParallelismNeverNegative(t *testing.T) {
	tl := buildSmallTimeline()
	for _, p := range tl.Parallelism() {
		if p.Running < 0 || p.Runnable < 0 {
			t.Fatalf("negative counts at %v: %+v", p.Time, p)
		}
	}
}

func TestValidateDetectsOverlapOnCPU(t *testing.T) {
	b := NewTimelineBuilder()
	h1 := b.StartThread(ThreadInfo{ID: 1, BoundCPU: -1}, 0)
	h2 := b.StartThread(ThreadInfo{ID: 2, BoundCPU: -1}, 0)
	b.AddSpan(h1, Span{Start: 0, End: 100, State: StateRunning, CPU: 0})
	b.AddSpan(h2, Span{Start: 50, End: 150, State: StateRunning, CPU: 0})
	tl := b.Build("t", 1, 1, 150)
	if err := tl.Validate(); err == nil {
		t.Fatal("overlap on CPU 0 not detected")
	}
}

func TestValidateDetectsRunningWithoutCPU(t *testing.T) {
	b := NewTimelineBuilder()
	h1 := b.StartThread(ThreadInfo{ID: 1, BoundCPU: -1}, 0)
	b.AddSpan(h1, Span{Start: 0, End: 10, State: StateRunning, CPU: -1})
	tl := b.Build("t", 1, 1, 10)
	if err := tl.Validate(); err == nil {
		t.Fatal("running without CPU not detected")
	}
}

func TestValidateDetectsThreadSpanOverlap(t *testing.T) {
	b := NewTimelineBuilder()
	h1 := b.StartThread(ThreadInfo{ID: 1, BoundCPU: -1}, 0)
	b.AddSpan(h1, Span{Start: 0, End: 100, State: StateRunning, CPU: 0})
	b.AddSpan(h1, Span{Start: 50, End: 60, State: StateBlocked, CPU: -1})
	tl := b.Build("t", 1, 1, 100)
	if err := tl.Validate(); err == nil {
		t.Fatal("per-thread span overlap not detected")
	}
}

func TestValidateDetectsCPUOutOfRange(t *testing.T) {
	b := NewTimelineBuilder()
	h1 := b.StartThread(ThreadInfo{ID: 1, BoundCPU: -1}, 0)
	b.AddSpan(h1, Span{Start: 0, End: 10, State: StateRunning, CPU: 5})
	tl := b.Build("t", 2, 2, 10)
	if err := tl.Validate(); err == nil {
		t.Fatal("CPU out of range not detected")
	}
}

func TestAddSpanUnregisteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimelineBuilder().AddSpan(9, Span{Start: 0, End: 1})
}

func TestThreadStateString(t *testing.T) {
	if StateRunning.String() != "running" || StateRunnable.String() != "runnable" || StateBlocked.String() != "blocked" {
		t.Fatal("state strings wrong")
	}
}
