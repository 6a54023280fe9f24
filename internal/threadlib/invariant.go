package threadlib

import (
	"fmt"

	"vppb/internal/sched"
)

// debugChecks enables exhaustive internal invariant checking in tests.
var debugChecks = false

// checkPushKernelQ is installed as the scheduler core's OnPushKernelQ
// hook: it validates an LWP just before the core queues it.
func (p *Process) checkPushKernelQ(l *klwp) {
	if !debugChecks {
		return
	}
	if l.thread == nil {
		panic(fmt.Sprintf("pushKernelQ: LWP %d has no thread", l.ID))
	}
	for _, q := range p.sc.KernelQ() {
		if q == l {
			panic(fmt.Sprintf("pushKernelQ: LWP %d already queued (thread T%d)", l.ID, l.thread.id))
		}
	}
	for _, q := range p.sc.IdleLWPs() {
		if q == l {
			panic(fmt.Sprintf("pushKernelQ: LWP %d is in idle list", l.ID))
		}
	}
	if l.cpu != nil {
		panic(fmt.Sprintf("pushKernelQ: LWP %d still on cpu %d", l.ID, l.cpu.ID))
	}
}

// checkInvariants validates the cross-linking of CPUs, LWPs, threads and
// queues. Called after every event when debugChecks is on.
func (p *Process) checkInvariants(where string) {
	if !debugChecks {
		return
	}
	die := func(format string, args ...any) {
		panic(fmt.Sprintf("invariant (%s): %s", where, fmt.Sprintf(format, args...)))
	}
	seen := map[*klwp]string{}
	for _, c := range p.cpus {
		if c.lwp == nil {
			continue
		}
		if prev, dup := seen[c.lwp]; dup {
			die("LWP %d both %s and on cpu %d", c.lwp.ID, prev, c.ID)
		}
		seen[c.lwp] = fmt.Sprintf("on cpu %d", c.ID)
		if c.lwp.cpu != c {
			die("cpu %d runs LWP %d but LWP points elsewhere", c.ID, c.lwp.ID)
		}
		if c.lwp.thread == nil {
			die("cpu %d runs threadless LWP %d", c.ID, c.lwp.ID)
		}
	}
	for _, l := range p.sc.KernelQ() {
		if prev, dup := seen[l]; dup {
			die("LWP %d both %s and in kernelQ", l.ID, prev)
		}
		seen[l] = "in kernelQ"
		if l.thread == nil {
			die("threadless LWP %d in kernelQ", l.ID)
		}
		if l.cpu != nil {
			die("queued LWP %d claims cpu %d", l.ID, l.cpu.ID)
		}
	}
	for _, l := range p.sc.IdleLWPs() {
		if prev, dup := seen[l]; dup {
			die("LWP %d both %s and idle", l.ID, prev)
		}
		seen[l] = "idle"
		if l.thread != nil {
			die("idle LWP %d has thread T%d", l.ID, l.thread.id)
		}
	}
	for _, kt := range p.threads {
		if kt.State == sched.Zombie {
			continue
		}
		if kt.lwp != nil && kt.lwp.thread != kt {
			die("T%d points to LWP %d which runs another thread", kt.id, kt.lwp.ID)
		}
		if kt.State == sched.Running {
			if kt.lwp == nil || kt.lwp.cpu == nil {
				die("running T%d has no LWP/CPU", kt.id)
			}
		}
	}
	for _, kt := range p.sc.UserRunQ() {
		if kt.lwp != nil {
			die("T%d in userRunQ but attached to LWP %d", kt.id, kt.lwp.ID)
		}
		if kt.State != sched.Runnable {
			die("T%d in userRunQ in wrong state", kt.id)
		}
	}
}
