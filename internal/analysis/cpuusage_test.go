package analysis

import (
	"strings"
	"testing"

	"vppb/internal/trace"
)

// syntheticTimeline builds a deterministic 2-CPU execution by hand:
// thread 1 runs 0..60 on CPU 0; thread 2 runs 10..40 on CPU 1, is
// runnable 40..50, then runs 50..60 on CPU 0.
func syntheticTimeline() *trace.Timeline {
	b := trace.NewTimelineBuilder()
	h1 := b.StartThread(trace.ThreadInfo{ID: 1, Name: "main", BoundCPU: -1}, 0)
	b.AddSpan(h1, trace.Span{Start: 0, End: 60, State: trace.StateRunning, CPU: 0})
	h2 := b.StartThread(trace.ThreadInfo{ID: 2, Name: "worker", BoundCPU: -1}, 10)
	b.AddSpan(h2, trace.Span{Start: 10, End: 40, State: trace.StateRunning, CPU: 1})
	b.AddSpan(h2, trace.Span{Start: 40, End: 50, State: trace.StateRunnable, CPU: 1})
	b.AddSpan(h2, trace.Span{Start: 50, End: 60, State: trace.StateRunning, CPU: 0})
	b.EndThread(h2, 60)
	b.EndThread(h1, 60)
	return b.Build("synthetic", 3, 3, 60)
}

func TestAnalyzeCPUsSynthetic(t *testing.T) {
	rep, err := AnalyzeCPUs(syntheticTimeline())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration != 60 {
		t.Fatalf("duration = %v", rep.Duration)
	}
	// One row per machine CPU, ordered, including the idle third CPU.
	if len(rep.CPUs) != 3 {
		t.Fatalf("cpus = %+v", rep.CPUs)
	}
	c0, c1, c2 := rep.CPUs[0], rep.CPUs[1], rep.CPUs[2]
	if c0.CPU != 0 || c0.Busy != 70 || c0.Dispatches != 2 || c0.Threads != 2 {
		t.Errorf("cpu0 = %+v, want busy 70 over 2 dispatches of 2 threads", c0)
	}
	if c1.CPU != 1 || c1.Busy != 30 || c1.Dispatches != 1 || c1.Threads != 1 {
		t.Errorf("cpu1 = %+v, want busy 30 over 1 dispatch", c1)
	}
	if c2.CPU != 2 || c2.Busy != 0 || c2.Threads != 0 || c2.Utilization != 0 {
		t.Errorf("idle cpu2 = %+v", c2)
	}
	// Runnable time must not count as busy anywhere.
	if got, want := c0.Utilization, 70.0/60.0; got != want {
		t.Errorf("cpu0 utilization = %v, want %v", got, want)
	}
	if got, want := rep.Average(), (70.0/60.0+30.0/60.0)/3; !approx(got, want) {
		t.Errorf("average = %v, want %v", got, want)
	}
}

func approx(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }

func TestAnalyzeCPUsZeroDuration(t *testing.T) {
	b := trace.NewTimelineBuilder()
	rep, err := AnalyzeCPUs(b.Build("empty", 2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CPUs) != 2 {
		t.Fatalf("cpus = %+v", rep.CPUs)
	}
	for _, u := range rep.CPUs {
		if u.Utilization != 0 || u.Busy != 0 {
			t.Errorf("zero-duration cpu %d = %+v", u.CPU, u)
		}
	}
	if rep.Average() != 0 {
		t.Errorf("average = %v", rep.Average())
	}
}

func TestCPUReportAverageEmpty(t *testing.T) {
	if avg := (&CPUReport{}).Average(); avg != 0 {
		t.Fatalf("empty report average = %v", avg)
	}
}

func TestCPUReportFormatSynthetic(t *testing.T) {
	rep, err := AnalyzeCPUs(syntheticTimeline())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, want := range []string{"per-CPU occupancy", "execution time", "average utilization", "116.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 6 {
		t.Errorf("format too short:\n%s", out)
	}
}
