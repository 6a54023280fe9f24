package sched

import (
	"fmt"

	"vppb/internal/vtime"
)

// Engine is an engine as the Core sees it. The Core owns the queues, the
// who-runs-where choice, the CPU accounting, the timers, the event loop
// and the drive; the engine owns its calls, its own events, probes, grants
// and budgets. Every method names threads and CPUs by index, as
// syncobj.Engine does.
type Engine interface {
	// Step runs before each event is handled: the engine's budgets.
	// advanced says the event moved the clock. A budget that runs out
	// calls Fail, and the run stops before the event is handled.
	Step(ev Event, advanced bool)
	// Handle delivers one of the engine's own events (kinds from
	// EvEngine on), whose timer slot pop has already disarmed.
	Handle(ev Event)
	// Reach: thread ti has done its burst on cpu and reaches its next
	// call. The engine fires the Before probe and returns the call's CPU
	// cost, or ends the thread or fails the run instead.
	Reach(cpu, ti int32) vtime.Duration
	// Apply applies the call of thread ti once its cost is paid, and
	// reports whether the thread left cpu (it blocked, yielded or exited)
	// or the run failed; otherwise the call completed on the CPU.
	Apply(cpu, ti int32) bool
	// Complete finishes the call of thread ti and moves the thread to its
	// next call: one that completed on cpu, or one that completed while
	// the thread was off-CPU, now that the Core runs it on cpu again. It
	// may end the thread (a replay whose records are exhausted exits);
	// the Core arms the thread's timers only if it still runs on cpu.
	Complete(cpu, ti int32)
	// Wake is the engine's grant path, which thr_continue takes: it wakes
	// thread ti as if thread by had granted it (syncobj.Engine's method).
	Wake(ti, by int32)
	// Deadlock is the run's error when live threads remain and no event
	// is left.
	Deadlock() error
}

// DebugChecks makes Run check the links (CheckLinks) after each event is
// handled and after each dispatch pass, and panic on a broken one. Tests
// set it while no run is in progress.
var DebugChecks bool

// Start counts thread ti live until it exits (Exit) and creates the
// dedicated LWP of a bound thread, which dies with it.
func (c *Core) Start(ti int32) {
	c.live++
	if c.threads[ti].Bound {
		c.pair(ti, c.newLWP(true))
	}
}

// Live is the number of threads started and not yet exited.
func (c *Core) Live() int { return c.live }

// Fail records err as the run's error unless an earlier one was recorded.
func (c *Core) Fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// Err is the run's first error.
func (c *Core) Err() error { return c.err }

// Run runs the machine until every started thread has exited or the run
// fails, and returns the run's first error. Each round pops the next
// event and moves the clock to it, steps the engine, handles the event
// and runs the dispatch and preemption passes.
func (c *Core) Run() error {
	c.DispatchAll()
	c.PreemptPass()
	for c.live > 0 && c.err == nil {
		at, ev, seq, ok := c.pop()
		if !ok {
			c.Fail(c.engine.Deadlock())
			break
		}
		advanced := at > *c.now
		if advanced {
			*c.now = at
		}
		if c.engine.Step(ev, advanced); c.err != nil {
			break
		}
		c.handle(ev)
		// checkLinks is too large to inline: test the flag here, so a
		// run without checks makes no call.
		if DebugChecks {
			c.checkLinks("post-handle", ev, seq)
		}
		c.DispatchAll()
		c.PreemptPass()
		if DebugChecks {
			c.checkLinks("post-dispatch", ev, seq)
		}
	}
	return c.err
}

// checkLinks panics on a broken link, or on the CPU timer of event ev,
// delivered with seq, still listed as it was delivered: a handler that
// neither re-arms nor disarms its timer would have it delivered again.
// Run calls it only with DebugChecks on.
func (c *Core) checkLinks(where string, ev Event, seq uint64) {
	err := c.CheckLinks()
	if err == nil && ev.Kind < EvEngine && c.err == nil {
		if _, s, ok := c.timers.Key(timerSlot(ev.Who, ev.Kind)); ok && s == seq {
			err = fmt.Errorf("%s timer of cpu %d still listed after its delivery", [...]string{"burst", "slice"}[ev.Kind], ev.Who)
		}
	}
	if err != nil {
		panic(fmt.Sprintf("invariant (%s): %v", where, err))
	}
}

// handle delivers one event. A CPU timer is always live, as unlink
// disarms an idle CPU's timers, and each path re-arms or disarms it. A
// slice that ends applies the policy's quantum-expiry rules and re-arms
// the slice unless the LWP yielded its CPU. A burst that ends charges its
// CPU and drives the thread running there: to its next burst, or off the
// CPU, which runs its next thread or idles.
func (c *Core) handle(ev Event) {
	cpu := ev.Who
	switch ev.Kind {
	case EvBurst:
		cn := &c.cpus[cpu]
		c.account(cn)
		c.drive(cpu, c.lwps[cn.lwp].thread)
	case EvSlice:
		if !c.sliceExpired(cpu) {
			c.armSlice(cpu, &c.lwps[c.cpus[cpu].lwp])
		}
	default:
		c.engine.Handle(ev)
	}
}

// drive takes thread ti, whose burst on cpu ended, through its call's
// stages until it owes CPU time again, which arms the burst, or it
// blocks, exits or the run fails: Reach at StageCompute, whose cost
// becomes the thread's work, then Apply at StageCall, and Complete when
// the call completed on the CPU. The thread is never at StageWaiting
// here: run completes a waiting call before it arms the burst.
func (c *Core) drive(cpu, ti int32) {
	tn := c.threads[ti]
	cn := &c.cpus[cpu]
	for cn.overhead <= 0 && tn.WorkLeft <= 0 {
		switch tn.Stage {
		case StageCompute:
			cost := c.engine.Reach(cpu, ti)
			if c.err != nil || tn.State == Zombie {
				return
			}
			tn.Stage = StageCall
			tn.WorkLeft = cost
		case StageCall:
			if c.engine.Apply(cpu, ti) || c.err != nil || tn.State == Zombie {
				return
			}
			if c.engine.Complete(cpu, ti); tn.State == Zombie {
				return
			}
		}
	}
	c.armBurst(cpu, tn)
}
