// Package sched is the shared two-level scheduler core of both engines:
// the execution-driven recording kernel (internal/threadlib) and the
// trace-driven Simulator (internal/core). VPPB's central fidelity
// invariant — the Simulator schedules exactly like the machine the trace
// was recorded on — is enforced by construction: there is one
// implementation of the run queues, the preemption pass, the time-slice
// rules, the wake boosting, the CPU accounting with its dispatch
// overheads and the burst and slice timers, and both engines drive their
// state machines through it.
//
// The Policy interface isolates the few decisions that distinguish one
// scheduling discipline from another. The default "ts" policy reproduces
// the Solaris time-sharing class backed by internal/dispatch; "fifo" and
// "rr" open the what-if axis the paper hints at — replaying one recorded
// execution under a different discipline.
package sched

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"vppb/internal/dispatch"
	"vppb/internal/vtime"
)

// Policy parameterizes the scheduler core. Implementations must be
// stateless (or immutable after construction): one Policy value is shared
// by every queue operation of a simulation, and distinct simulations get
// distinct values from New.
type Policy interface {
	// Name is the registry name ("ts", "fifo", ...).
	Name() string
	// Precedes reports whether a newly queued entity of priority a goes
	// ahead of an already queued one of priority b. Equal priorities must
	// answer false so queues stay FIFO within a priority, and Precedes(a, b)
	// must imply a > b, so every queue is priority-descending.
	Precedes(a, b int) bool
	// ShouldPreempt reports whether a queued LWP of priority queued may
	// preempt a running LWP of priority running. It must imply
	// Precedes(queued, running), and it must be monotone: never false
	// where a lower queued priority (against the same runner) or a higher
	// running priority (for the same queued LWP) answers true. The Core's
	// preemption check relies on both: it tests only the best LWP that
	// may run on any CPU, against the lowest-priority runner.
	ShouldPreempt(queued, running int) bool
	// Quantum is the time slice granted at priority p. Zero or negative
	// disables time slicing entirely (run-to-block).
	Quantum(p int) vtime.Duration
	// OnSliceExpiry maps a priority to its post-expiry value and decides
	// whether the expired LWP yields the CPU. waiting is the priority of
	// the best queued eligible LWP; hasWaiting is false when the kernel
	// queue holds no eligible competitor (then waiting is meaningless).
	OnSliceExpiry(p, waiting int, hasWaiting bool) (newPrio int, yield bool)
	// OnWake maps a priority to its post-sleep value (the Solaris slpret
	// boost). Identity for disciplines without wake boosting.
	OnWake(p int) int
}

// Default is the policy New resolves an empty name to.
const Default = "ts"

var registry = map[string]func() Policy{}

// Register adds a policy factory under name. It panics on duplicates so a
// clash is caught at init time.
func Register(name string, factory func() Policy) {
	if _, dup := registry[name]; dup {
		panic("sched: duplicate policy " + name)
	}
	registry[name] = factory
}

func init() {
	Register("ts", func() Policy { return &solarisTS{table: dispatch.NewTable()} })
	Register("fifo", func() Policy { return fifo{} })
	Register("rr", func() Policy { return rr{} })
}

// New resolves a policy name. The empty name means Default; an unknown
// name is an error that lists the valid choices.
func New(name string) (Policy, error) {
	if name == "" {
		name = Default
	}
	factory, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduling policy %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	return factory(), nil
}

// Known reports whether New resolves name, without building the policy.
func Known(name string) bool {
	_, ok := registry[cmp.Or(name, Default)]
	return ok
}

// Names returns the registered policy names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// solarisTS is the Solaris 2.x time-sharing class: priorities 0..59,
// higher runs first, the dispatch table's per-priority quanta, tqexp
// demotion on quantum expiry and slpret boosting on wake.
type solarisTS struct {
	table *dispatch.Table
}

func (*solarisTS) Name() string                           { return "ts" }
func (*solarisTS) Precedes(a, b int) bool                 { return a > b }
func (*solarisTS) ShouldPreempt(queued, running int) bool { return running < queued }

func (p *solarisTS) Quantum(prio int) vtime.Duration {
	return vtime.Duration(p.table.Quantum(prio))
}

func (p *solarisTS) OnSliceExpiry(prio, waiting int, hasWaiting bool) (int, bool) {
	np := p.table.AfterQuantumExpiry(prio)
	// Yield when a queued LWP now matches or beats the demoted priority —
	// the same comparison the Solaris kernel makes after tqexp demotion.
	return np, hasWaiting && waiting >= np
}

func (p *solarisTS) OnWake(prio int) int { return p.table.AfterSleepReturn(prio) }

// fifo is run-to-block: strict arrival order within a priority, no time
// slicing, no preemption on wake, no priority dynamics.
type fifo struct{}

func (fifo) Name() string                               { return "fifo" }
func (fifo) Precedes(a, b int) bool                     { return a > b }
func (fifo) ShouldPreempt(int, int) bool                { return false }
func (fifo) Quantum(int) vtime.Duration                 { return 0 }
func (fifo) OnSliceExpiry(p, _ int, _ bool) (int, bool) { return p, false }
func (fifo) OnWake(p int) int                           { return p }

// RRQuantum is the fixed round-robin time slice.
const RRQuantum = 20 * vtime.Millisecond

// rr is fixed-quantum round-robin: every LWP gets the same slice
// regardless of priority, expiry cycles to the back of the queue when a
// competitor waits, and priorities never move.
type rr struct{}

func (rr) Name() string                                        { return "rr" }
func (rr) Precedes(a, b int) bool                              { return a > b }
func (rr) ShouldPreempt(int, int) bool                         { return false }
func (rr) Quantum(int) vtime.Duration                          { return RRQuantum }
func (rr) OnSliceExpiry(p, _ int, hasWaiting bool) (int, bool) { return p, hasWaiting }
func (rr) OnWake(p int) int                                    { return p }
