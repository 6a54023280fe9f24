package threadlib

import (
	"strings"
	"testing"

	"vppb/internal/trace"
	"vppb/internal/vtime"
)

func TestIOBlocksWithoutCPU(t *testing.T) {
	p := NewProcess(Config{CPUs: 1, Costs: zeroCosts(), CollectTimeline: true})
	disk := p.NewDevice("disk")
	res, err := p.Run(func(th *Thread) {
		a := th.Create(func(w *Thread) {
			w.Compute(10 * vtime.Millisecond)
			disk.IO(w, 50*vtime.Millisecond)
			w.Compute(10 * vtime.Millisecond)
		}, WithName("io-thread"))
		// A CPU-only worker fills the core while the first is in I/O.
		b := th.Create(func(w *Thread) {
			w.Compute(40 * vtime.Millisecond)
		}, WithName("cpu-thread"))
		th.Join(a)
		th.Join(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	// a: 10ms CPU, then 50ms I/O (CPU free; b's 40ms fit inside), then
	// 10ms CPU starting at the 60ms I/O completion: 70ms total, not the
	// 110ms a CPU-consuming wait would give.
	if res.Duration != 70*vtime.Millisecond {
		t.Fatalf("duration = %v, want 70ms", res.Duration)
	}
	// The I/O thread consumed only 20ms of CPU.
	if got := res.PerThreadCPU[4]; got != 20*vtime.Millisecond {
		t.Fatalf("worker CPU = %v, want 20ms", got)
	}
}

func TestIODeviceFIFOQueueing(t *testing.T) {
	p := NewProcess(Config{CPUs: 4, Costs: zeroCosts()})
	disk := p.NewDevice("disk")
	var order []trace.ThreadID
	res, err := p.Run(func(th *Thread) {
		var ids []trace.ThreadID
		for i := 0; i < 3; i++ {
			ids = append(ids, th.Create(func(w *Thread) {
				disk.IO(w, 20*vtime.Millisecond)
				order = append(order, w.ID())
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three 20ms requests serviced FIFO: 60ms total.
	if res.Duration != 60*vtime.Millisecond {
		t.Fatalf("duration = %v, want 60ms", res.Duration)
	}
	if len(order) != 3 || order[0] != 4 || order[1] != 5 || order[2] != 6 {
		t.Fatalf("service order = %v", order)
	}
}

func TestIOEventsRecorded(t *testing.T) {
	c := &collector{}
	p := NewProcess(Config{CPUs: 1, Costs: zeroCosts(), Hook: c})
	disk := p.NewDevice("disk")
	_, err := p.Run(func(th *Thread) {
		disk.IO(th, 5*vtime.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after *trace.Event
	for i := range c.events {
		if c.events[i].Call == trace.CallIO {
			if c.events[i].Class == trace.Before {
				before = &c.events[i]
			} else {
				after = &c.events[i]
			}
		}
	}
	if before == nil || after == nil {
		t.Fatal("io events missing")
	}
	if before.Timeout != 5*vtime.Millisecond {
		t.Fatalf("recorded service time = %v", before.Timeout)
	}
	if after.Time.Sub(before.Time) != 5*vtime.Millisecond {
		t.Fatalf("io took %v in the recording", after.Time.Sub(before.Time))
	}
	if len(c.objects) != 1 || c.objects[0].Kind != trace.ObjDevice {
		t.Fatalf("device object not recorded: %+v", c.objects)
	}
}

func TestSuspendRunningThread(t *testing.T) {
	p := NewProcess(Config{CPUs: 2, Costs: zeroCosts(), CollectTimeline: true})
	res, err := p.Run(func(th *Thread) {
		a := th.Create(func(w *Thread) {
			w.Compute(100 * vtime.Millisecond)
		}, WithName("victim"))
		th.Compute(20 * vtime.Millisecond)
		th.Suspend(a)
		th.Compute(50 * vtime.Millisecond)
		th.Continue(a)
		th.Join(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Victim: 20ms before suspension, then parked 50ms, then 80ms more:
	// ends at 20+50+80 = 150ms.
	if res.Duration != 150*vtime.Millisecond {
		t.Fatalf("duration = %v, want 150ms", res.Duration)
	}
	if got := res.PerThreadCPU[4]; got != 100*vtime.Millisecond {
		t.Fatalf("victim CPU = %v, want 100ms (suspension preserves progress)", got)
	}
	if err := res.Timeline.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendRunnableThread(t *testing.T) {
	// One CPU: worker is runnable (queued) when suspended.
	p := NewProcess(Config{CPUs: 1, LWPs: 2, Costs: zeroCosts()})
	res, err := p.Run(func(th *Thread) {
		a := th.Create(func(w *Thread) { w.Compute(30 * vtime.Millisecond) })
		th.Suspend(a)
		th.Compute(40 * vtime.Millisecond)
		th.Continue(a)
		th.Join(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 70*vtime.Millisecond {
		t.Fatalf("duration = %v, want 70ms", res.Duration)
	}
}

func TestSuspendSleepingThreadDefersWake(t *testing.T) {
	p := NewProcess(Config{CPUs: 2, Costs: zeroCosts()})
	gate := p.NewSema("gate", 0)
	res, err := p.Run(func(th *Thread) {
		a := th.Create(func(w *Thread) {
			gate.Wait(w)
			w.Compute(10 * vtime.Millisecond)
		})
		th.Compute(5 * vtime.Millisecond)
		th.Suspend(a)
		gate.Post(th) // grant arrives while suspended
		th.Compute(20 * vtime.Millisecond)
		th.Continue(a) // the deferred grant is delivered here
		th.Join(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	// a runs its 10ms only after Continue at 25ms: ends 35ms.
	if res.Duration != 35*vtime.Millisecond {
		t.Fatalf("duration = %v, want 35ms", res.Duration)
	}
}

func TestSelfSuspend(t *testing.T) {
	p := NewProcess(Config{CPUs: 2, Costs: zeroCosts()})
	res, err := p.Run(func(th *Thread) {
		a := th.Create(func(w *Thread) {
			w.Compute(5 * vtime.Millisecond)
			w.Suspend(w.ID()) // park until main continues us
			w.Compute(5 * vtime.Millisecond)
		})
		th.Compute(30 * vtime.Millisecond)
		th.Continue(a)
		th.Join(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 35*vtime.Millisecond {
		t.Fatalf("duration = %v, want 35ms", res.Duration)
	}
}

func TestSuspendUnknownFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(*Thread)
	}{
		{"suspend", func(th *Thread) { th.Suspend(99) }},
		{"continue", func(th *Thread) { th.Continue(99) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcess(Config{CPUs: 1, Costs: zeroCosts()})
			_, err := p.Run(tc.call)
			if err == nil || !strings.Contains(err.Error(), "unknown thread") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

func TestSuspendForeverDeadlocks(t *testing.T) {
	p := NewProcess(Config{CPUs: 1, Costs: zeroCosts()})
	_, err := p.Run(func(th *Thread) {
		a := th.Create(func(w *Thread) { w.Compute(time1ms) })
		th.Suspend(a)
		th.Join(a)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v", err)
	}
}

const time1ms = 1000 * vtime.Microsecond

func TestDoubleSuspendAndContinueIdempotent(t *testing.T) {
	p := NewProcess(Config{CPUs: 2, Costs: zeroCosts()})
	_, err := p.Run(func(th *Thread) {
		a := th.Create(func(w *Thread) { w.Compute(10 * vtime.Millisecond) })
		th.Suspend(a)
		th.Suspend(a) // no-op
		th.Continue(a)
		th.Continue(a) // no-op
		th.Join(a)
	})
	if err != nil {
		t.Fatal(err)
	}
}
