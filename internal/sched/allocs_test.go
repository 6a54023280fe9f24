package sched

import "testing"

// TestCoreSteadyStateAllocs pins the zero-allocation contract of the
// scheduler hot path: once the queues have reached their peak size, a full
// undispatch → requeue → dispatch → slice-expiry cycle, with the burst and
// slice timers it arms and an engine event delivered through pop and
// disarmed, must not touch the heap.
// The simulator drives these entry points once or more per simulated
// event, so a single allocation here is a per-event allocation for every
// prediction.
func TestCoreSteadyStateAllocs(t *testing.T) {
	core, _ := newFakeCore(t, "ts", 2, false)
	for range 4 {
		core.pushKernelQ(newLWP(core, 30))
	}
	wake := core.AddTimer(Event{Kind: EvEngine, Who: 0})
	cycle := func() {
		core.Arm(wake, core.now.Add(1))
		for cpu := range core.cpus {
			core.undispatch(int32(cpu))
		}
		core.DispatchAll()
		core.PreemptPass()
		for cpu, cn := range core.cpus {
			if cn.lwp != nilIdx {
				core.sliceExpired(int32(cpu))
			}
		}
		core.DispatchAll()
		core.PreemptPass()
		for {
			_, ev, _, ok := core.pop()
			if !ok {
				break
			}
			core.timers.Disarm(timerSlot(ev.Who, ev.Kind))
		}
	}
	// Warm up: queues and idle list grow to their steady-state capacity.
	core.DispatchAll()
	for r := 0; r < 3; r++ {
		cycle()
	}

	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state scheduler cycle allocates: %v allocs/cycle", allocs)
	}
}

// TestUserRunQSteadyStateAllocs covers the thread-side queue the same way:
// parking and reclaiming threads through the user run queue must reuse the
// backing array once it has grown.
func TestUserRunQSteadyStateAllocs(t *testing.T) {
	core, _ := newFakeCore(t, "ts", 1, false)
	threads := make([]int32, 8)
	for i := range threads {
		threads[i] = addThread(core, 20+i)
	}
	for r := 0; r < 3; r++ {
		for _, th := range threads {
			core.pushUserRunQ(th)
		}
		for range threads {
			core.popUserRunQ()
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, th := range threads {
			core.pushUserRunQ(th)
		}
		for range threads {
			core.popUserRunQ()
		}
	})
	if allocs != 0 {
		t.Fatalf("user run queue cycle allocates: %v allocs/cycle", allocs)
	}
}
