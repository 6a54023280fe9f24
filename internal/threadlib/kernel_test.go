package threadlib

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// zeroCosts makes arithmetic exact in tests.
func zeroCosts() *CostModel {
	return &CostModel{BoundCreateFactor: 6.7, BoundSyncFactor: 5.9}
}

func run(t *testing.T, cfg Config, main func(*Thread)) *Result {
	t.Helper()
	res, err := NewProcess(cfg).Run(main)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleThreadCompute(t *testing.T) {
	res := run(t, Config{CPUs: 1, Costs: zeroCosts()}, func(th *Thread) {
		th.Compute(100 * vtime.Millisecond)
	})
	if res.Duration != 100*vtime.Millisecond {
		t.Fatalf("duration = %v, want 100ms", res.Duration)
	}
	if res.Threads != 1 {
		t.Fatalf("threads = %d", res.Threads)
	}
	if res.PerThreadCPU[1] != 100*vtime.Millisecond {
		t.Fatalf("main cpu = %v", res.PerThreadCPU[1])
	}
}

func TestRunTwiceFails(t *testing.T) {
	p := NewProcess(Config{CPUs: 1, Costs: zeroCosts()})
	if _, err := p.Run(func(*Thread) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(func(*Thread) {}); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestNilMainFails(t *testing.T) {
	if _, err := NewProcess(Config{}).Run(nil); err == nil {
		t.Fatal("nil main should fail")
	}
}

func TestCreateJoinSequentialOnUniprocessor(t *testing.T) {
	// Two 100ms workers on one CPU must serialize: total 250ms.
	res := run(t, Config{CPUs: 1, Costs: zeroCosts()}, func(th *Thread) {
		worker := func(w *Thread) { w.Compute(100 * vtime.Millisecond) }
		th.Compute(50 * vtime.Millisecond)
		a := th.Create(worker, WithName("thr_a"))
		b := th.Create(worker, WithName("thr_b"))
		th.Join(a)
		th.Join(b)
	})
	if res.Duration != 250*vtime.Millisecond {
		t.Fatalf("duration = %v, want 250ms", res.Duration)
	}
	if res.Threads != 3 {
		t.Fatalf("threads = %d", res.Threads)
	}
}

func TestCreateJoinParallelOnTwoCPUs(t *testing.T) {
	res := run(t, Config{CPUs: 2, Costs: zeroCosts()}, func(th *Thread) {
		worker := func(w *Thread) { w.Compute(100 * vtime.Millisecond) }
		a := th.Create(worker)
		b := th.Create(worker)
		th.Join(a)
		th.Join(b)
	})
	// Main blocks immediately; both workers overlap on 2 CPUs but share
	// with main's instantaneous ops: 100ms total.
	if res.Duration != 100*vtime.Millisecond {
		t.Fatalf("duration = %v, want 100ms", res.Duration)
	}
}

func TestThreadIDsFollowSolaris(t *testing.T) {
	var ids []trace.ThreadID
	run(t, Config{CPUs: 1, Costs: zeroCosts()}, func(th *Thread) {
		if th.ID() != 1 {
			t.Errorf("main id = %d", th.ID())
		}
		ids = append(ids, th.Create(func(*Thread) {}))
		ids = append(ids, th.Create(func(*Thread) {}))
		th.JoinAny()
		th.JoinAny()
	})
	if ids[0] != 4 || ids[1] != 5 {
		t.Fatalf("created ids = %v, want [4 5]", ids)
	}
}

func TestJoinReturnsTarget(t *testing.T) {
	run(t, Config{CPUs: 1, Costs: zeroCosts()}, func(th *Thread) {
		a := th.Create(func(w *Thread) { w.Compute(10) })
		if got := th.Join(a); got != a {
			t.Errorf("Join returned %d, want %d", got, a)
		}
	})
}

func TestJoinAlreadyExited(t *testing.T) {
	run(t, Config{CPUs: 1, Costs: zeroCosts()}, func(th *Thread) {
		a := th.Create(func(*Thread) {})
		th.Compute(50 * vtime.Millisecond) // let the child run and exit
		th.Yield()
		if got := th.Join(a); got != a {
			t.Errorf("Join zombie returned %d, want %d", got, a)
		}
	})
}

func TestWildcardJoinReapsInExitOrder(t *testing.T) {
	var order []trace.ThreadID
	run(t, Config{CPUs: 1, Costs: zeroCosts()}, func(th *Thread) {
		// fast exits before slow on a uniprocessor (created first).
		fast := th.Create(func(w *Thread) { w.Compute(1 * vtime.Millisecond) }, WithName("fast"))
		slow := th.Create(func(w *Thread) { w.Compute(50 * vtime.Millisecond) }, WithName("slow"))
		order = append(order, th.JoinAny(), th.JoinAny())
		_ = fast
		_ = slow
	})
	if order[0] != 4 || order[1] != 5 {
		t.Fatalf("reap order = %v, want [4 5]", order)
	}
}

func TestJoinSelfFails(t *testing.T) {
	_, err := NewProcess(Config{CPUs: 1, Costs: zeroCosts()}).Run(func(th *Thread) {
		th.Join(th.ID())
	})
	if err == nil || !strings.Contains(err.Error(), "joined itself") {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinUnknownFails(t *testing.T) {
	_, err := NewProcess(Config{CPUs: 1, Costs: zeroCosts()}).Run(func(th *Thread) {
		th.Join(77)
	})
	if err == nil || !strings.Contains(err.Error(), "unknown thread") {
		t.Fatalf("err = %v", err)
	}
}

func TestWildcardJoinAloneFails(t *testing.T) {
	_, err := NewProcess(Config{CPUs: 1, Costs: zeroCosts()}).Run(func(th *Thread) {
		th.JoinAny()
	})
	if err == nil || !strings.Contains(err.Error(), "wildcard") {
		t.Fatalf("err = %v", err)
	}
}

func TestExplicitExit(t *testing.T) {
	reached := false
	res := run(t, Config{CPUs: 1, Costs: zeroCosts()}, func(th *Thread) {
		th.Compute(10 * vtime.Millisecond)
		th.Exit()
		reached = true
	})
	if reached {
		t.Fatal("code after Exit ran")
	}
	if res.Duration != 10*vtime.Millisecond {
		t.Fatalf("duration = %v", res.Duration)
	}
}

func TestUserPanicBecomesError(t *testing.T) {
	_, err := NewProcess(Config{CPUs: 1, Costs: zeroCosts()}).Run(func(th *Thread) {
		var s []int
		_ = s[3] // index out of range
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicInWorkerAbortsRun(t *testing.T) {
	_, err := NewProcess(Config{CPUs: 1, Costs: zeroCosts()}).Run(func(th *Thread) {
		a := th.Create(func(w *Thread) { panic("boom") })
		th.Join(a)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	p := NewProcess(Config{CPUs: 1, Costs: zeroCosts()})
	m1 := p.NewMutex("m1")
	m2 := p.NewMutex("m2")
	_, err := p.Run(func(th *Thread) {
		a := th.Create(func(w *Thread) {
			m1.Lock(w)
			w.Compute(10 * vtime.Millisecond)
			m2.Lock(w)
		})
		b := th.Create(func(w *Thread) {
			m2.Lock(w)
			w.Compute(20 * vtime.Millisecond)
			m1.Lock(w)
		})
		th.Join(a)
		th.Join(b)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v", err)
	}
}

// TestSuspendedBurstLeavesNoTimer: main suspends a thread 20 ms into its
// 1 s burst, then waits on a semaphore no one posts. The suspended
// thread's burst timer goes with it, so the deadlock is reported at
// 20 ms, when main blocked, not at the 1 s the burst would have ended,
// and a 500 ms budget does not run out first.
func TestSuspendedBurstLeavesNoTimer(t *testing.T) {
	// The victim was stopped in its burst, before the thr_exit it never
	// reached, so it has no call site to name.
	for _, budget := range []vtime.Duration{0, 500 * vtime.Millisecond} {
		p := NewProcess(Config{CPUs: 2, Costs: zeroCosts(), MaxDuration: budget})
		never := p.NewSema("never", 0)
		var line int
		_, err := p.Run(func(th *Thread) {
			victim := th.Create(func(w *Thread) { w.Compute(vtime.Second) })
			th.Compute(20 * vtime.Millisecond)
			th.Suspend(victim)
			_, _, line, _ = runtime.Caller(0)
			never.Wait(th) // main's call site: the line after Caller's
		})
		want := fmt.Sprintf("threadlib: deadlock at %v: T1(main) sleeping on sema \"never\" at threadlib/kernel_test.go:%d; T4(T4) sleeping before thr_exit;",
			vtime.Time(0).Add(20*vtime.Millisecond), line+1)
		if err == nil || err.Error() != want {
			t.Errorf("budget %v: err = %v, want %q", budget, err, want)
		}
	}
}

func TestLivelockGuard(t *testing.T) {
	p := NewProcess(Config{CPUs: 1, Costs: zeroCosts(), MaxOpsWithoutProgress: 1000})
	m := p.NewMutex("m")
	_, err := p.Run(func(th *Thread) {
		for {
			m.Lock(th)
			m.Unlock(th)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("err = %v", err)
	}
}

func TestYield(t *testing.T) {
	var order []trace.ThreadID
	run(t, Config{CPUs: 1, Costs: zeroCosts()}, func(th *Thread) {
		note := func(w *Thread) {
			order = append(order, w.ID())
			w.Yield()
			order = append(order, w.ID())
		}
		a := th.Create(note)
		b := th.Create(note)
		th.Join(a)
		th.Join(b)
	})
	// Yield lets the other thread interleave: a, b, a, b.
	want := []trace.ThreadID{4, 5, 4, 5}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	prog := func(th *Thread) {
		var tids []trace.ThreadID
		for i := 0; i < 5; i++ {
			n := vtime.Duration(i+1) * 7 * vtime.Millisecond
			tids = append(tids, th.Create(func(w *Thread) { w.Compute(n) }))
		}
		for _, id := range tids {
			th.Join(id)
		}
	}
	cfg := Config{CPUs: 3, Seed: 42, JitterAmp: 0.05}
	r1 := run(t, cfg, prog)
	r2 := run(t, cfg, prog)
	if r1.Duration != r2.Duration {
		t.Fatalf("non-deterministic: %v vs %v", r1.Duration, r2.Duration)
	}
	r3 := run(t, Config{CPUs: 3, Seed: 43, JitterAmp: 0.05}, prog)
	if r3.Duration == r1.Duration {
		t.Fatal("different seed produced identical jittered run (suspicious)")
	}
}

func TestComputeNegativeIgnored(t *testing.T) {
	res := run(t, Config{CPUs: 1, Costs: zeroCosts()}, func(th *Thread) {
		th.Compute(-5 * vtime.Millisecond)
		th.Compute(10 * vtime.Millisecond)
	})
	if res.Duration != 10*vtime.Millisecond {
		t.Fatalf("duration = %v", res.Duration)
	}
}

func TestMaxDurationWatchdog(t *testing.T) {
	p := NewProcess(Config{CPUs: 1, Costs: zeroCosts(), MaxDuration: 50 * vtime.Millisecond})
	_, err := p.Run(func(th *Thread) {
		for {
			th.Compute(10 * vtime.Millisecond)
			th.Yield()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "did not terminate") {
		t.Fatalf("err = %v", err)
	}
}

func TestMaxDurationNotTriggeredByNormalRun(t *testing.T) {
	p := NewProcess(Config{CPUs: 1, Costs: zeroCosts(), MaxDuration: vtime.Second})
	res, err := p.Run(func(th *Thread) {
		th.Compute(100 * vtime.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 100*vtime.Millisecond {
		t.Fatalf("duration = %v", res.Duration)
	}
}
