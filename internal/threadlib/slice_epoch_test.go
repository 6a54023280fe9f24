package threadlib

import (
	"testing"

	"vppb/internal/dispatch"
	"vppb/internal/sched"
)

// TestStaleSliceEventDropped pins the epoch-invalidation protocol the
// shared scheduler core's Unlink helper relies on. Historically the
// sliceEpoch++-and-requeue pattern was triplicated across the kernel
// (yield, park, undispatch); it now funnels through sched.Core.Unlink, and
// this regression test guards the contract: a slice-expiry event stamped
// with an outdated epoch is dropped without touching the LWP, while a
// current-epoch event applies the policy's quantum-expiry rules.
func TestStaleSliceEventDropped(t *testing.T) {
	p := NewProcess(Config{CPUs: 1})
	kt := &kthread{ThreadNode: sched.ThreadNode{State: sched.Running}, id: 100, prio: dispatch.DefaultPriority, boundCPU: -1}
	l := p.newLWP(false)
	cpu := p.cpus[0]
	l.thread, kt.lwp = kt, l
	cpu.lwp, l.cpu = l, cpu

	// A stale event — its epoch lags the LWP's — must be ignored.
	l.SliceEpoch = 5
	p.handle(kevent{kind: evSlice, lwp: l, epoch: 4})
	if l.Prio != dispatch.DefaultPriority {
		t.Fatalf("stale slice event demoted the LWP to %d", l.Prio)
	}

	// The current epoch applies: tqexp demotion 29 -> 19, no yield with an
	// empty kernel queue, and the next slice re-armed.
	table := dispatch.NewTable()
	want := table.AfterQuantumExpiry(dispatch.DefaultPriority)
	before := p.events.Len()
	p.handle(kevent{kind: evSlice, lwp: l, epoch: 5})
	if l.Prio != want {
		t.Fatalf("current slice event: Prio = %d, want the tqexp demotion to %d", l.Prio, want)
	}
	if cpu.lwp != l {
		t.Fatal("runner with no competitor must keep its CPU")
	}
	if p.events.Len() != before+1 {
		t.Fatal("next slice event not re-armed")
	}

	// Unlink — the single requeue helper — invalidates the event armed
	// above: even relinked to the CPU, the LWP must ignore it.
	armed := l.SliceEpoch
	p.sc.Unlink(cpu, l)
	cpu.lwp, l.cpu = l, cpu
	p.handle(kevent{kind: evSlice, lwp: l, epoch: armed})
	if l.Prio != want {
		t.Fatalf("slice event from before Unlink applied: Prio = %d", l.Prio)
	}
}
