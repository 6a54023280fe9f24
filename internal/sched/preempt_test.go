package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"vppb/internal/vtime"
)

// TestPolicyContract checks, for every registered policy over the TS
// priority range, the rules the Core's preemption check relies on:
// ShouldPreempt implies Precedes, Precedes implies a higher priority (so
// every queue is priority-descending), and ShouldPreempt rises with the
// queued priority and falls as the running priority rises.
func TestPolicyContract(t *testing.T) {
	const maxPrio = 59
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q <= maxPrio; q++ {
			for r := 0; r <= maxPrio; r++ {
				sp := p.ShouldPreempt(q, r)
				if sp && !p.Precedes(q, r) {
					t.Errorf("%s: ShouldPreempt(%d, %d) without Precedes(%d, %d)", name, q, r, q, r)
				}
				if p.Precedes(q, r) && q <= r {
					t.Errorf("%s: Precedes(%d, %d) puts a priority ahead of a higher or equal one", name, q, r)
				}
				if sp && q < maxPrio && !p.ShouldPreempt(q+1, r) {
					t.Errorf("%s: ShouldPreempt(%d, %d) but not ShouldPreempt(%d, %d): must rise with the queued priority", name, q, r, q+1, r)
				}
				if !sp && r < maxPrio && p.ShouldPreempt(q, r+1) {
					t.Errorf("%s: ShouldPreempt(%d, %d) but not ShouldPreempt(%d, %d): must fall as the running priority rises", name, q, r+1, q, r)
				}
			}
		}
	}
}

// refPreemptPass is the O(kernelQ x CPUs) scan PreemptPass replaced: for
// each queued LWP in order, the lowest-priority preemptable runner on an
// eligible CPU; the first LWP with a victim evicts it. It is the reference
// TestPreemptPassDifferential compares against.
func refPreemptPass(c *Core) {
	if c.noPreempt || !c.preemptDirty {
		return
	}
	for {
		preempted := false
		for _, l := range c.kernelQ {
			victim := nilIdx
			for i, cn := range c.cpus {
				rl := cn.lwp
				if !c.eligible(int32(i), l) || rl == nilIdx {
					continue
				}
				if c.policy.ShouldPreempt(c.lwps[l].Prio, c.lwps[rl].Prio) && (victim == nilIdx || c.lwps[rl].Prio < c.lwps[c.cpus[victim].lwp].Prio) {
					victim = int32(i)
				}
			}
			if victim != nilIdx {
				c.undispatch(victim)
				c.DispatchAll()
				preempted = true
				break
			}
		}
		if !preempted {
			c.preemptDirty = false
			return
		}
	}
}

// preemptGen builds random scheduler states. Two generators from the same
// seed driven through the same calls build identical, unshared states.
type preemptGen struct {
	rng  *rand.Rand
	nCPU int
}

// lwp makes a queued or running LWP of random priority and placement
// rule: CPU-bound (sometimes to a CPU the machine lacks), bound to its LWP
// only, or unbound. All but the first may run on any CPU. Every LWP
// carries a thread, as a queued or running LWP does in both engines, with
// more work than any test charges, so its CPU time shows each charge.
func (g *preemptGen) lwp(c *Core) int32 {
	l := newLWP(c, g.rng.Intn(60))
	n := threadOf(c, l)
	n.WorkLeft = 1000 * vtime.Second
	switch g.rng.Intn(6) {
	case 0, 1:
		n.Bound = true
		n.BoundCPU = g.rng.Intn(g.nCPU + 1)
	case 2:
		n.Bound = true
	}
	return l
}

func cpuBound(c *Core, l int32) bool { return threadOf(c, l).BoundCPU >= 0 }

// state builds a Core with 1-8 CPUs, most of them running an LWP with its
// burst armed, and up to a dozen LWPs on the kernel queue.
func (g *preemptGen) state(policy string) (*Core, error) {
	pol, err := New(policy)
	if err != nil {
		return nil, err
	}
	c, _ := newTestCore(pol, g.nCPU, false, Overheads{})
	for cpu := range c.cpus {
		if g.rng.Intn(5) == 0 {
			continue
		}
		l := g.lwp(c)
		if cpuBound(c, l) {
			threadOf(c, l).BoundCPU = cpu
		}
		link(c, cpu, l)
		c.armBurst(int32(cpu), threadOf(c, l))
	}
	for n := g.rng.Intn(13); n > 0; n-- {
		c.pushKernelQ(g.lwp(c))
	}
	return c, nil
}

// perturb applies one random scheduling step: a slice expiry on a random
// runner (which may demote or yield it) or a fresh LWP arriving.
func (g *preemptGen) perturb(c *Core) {
	cpu := int32(g.rng.Intn(len(c.cpus)))
	if c.cpus[cpu].lwp != nilIdx && g.rng.Intn(2) == 0 {
		c.sliceExpired(cpu)
		return
	}
	c.pushKernelQ(g.lwp(c))
}

// runners lists the LWP each CPU runs, nilIdx for an idle CPU.
func runners(c *Core) []int32 {
	ls := make([]int32, len(c.cpus))
	for i, cn := range c.cpus {
		ls[i] = cn.lwp
	}
	return ls
}

// snapshot renders everything a preemption decision can change, with the
// time each CPU was last accounted.
func snapshot(c *Core) string {
	accounted := make([]vtime.Time, len(c.cpus))
	for i, cn := range c.cpus {
		accounted[i] = cn.accounted
	}
	return fmt.Sprintf("accounted %v running %v queued %v dirty %v",
		accounted, runners(c), c.kernelQ, c.preemptDirty)
}

// TestPreemptPassDifferential drives PreemptPass and the full-scan
// reference through identical random states and scheduling steps, under
// every policy, and requires the same victims in the same order and the
// same resulting placement. Each pass runs at a time of its own, and the
// runners it charges CPU time, read from their threads' nodes, must be
// exactly the ones it evicted: an evicted runner is charged before it
// leaves its CPU, and no other is. The links of both machines are
// checked after every step (CheckLinks).
func TestPreemptPassDifferential(t *testing.T) {
	const seeds = 3000
	var headBound, boundBehindAny, preempted int
	for _, policy := range Names() {
		for seed := int64(0); seed < seeds; seed++ {
			newGen := func() *preemptGen {
				rng := rand.New(rand.NewSource(seed))
				return &preemptGen{rng: rng, nCPU: 1 + rng.Intn(8)}
			}
			gGot, gWant := newGen(), newGen()
			got, err := gGot.state(policy)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := gWant.state(policy)

			if q := got.kernelQ; len(q) > 0 && cpuBound(got, q[0]) {
				headBound++
			}
			for i, l := range got.kernelQ {
				if !cpuBound(got, l) {
					for _, behind := range got.kernelQ[i+1:] {
						if cpuBound(got, behind) {
							boundBehindAny++
							break
						}
					}
					break
				}
			}

			for step := 0; step < 4; step++ {
				now := vtime.Time(2*step + 1)
				*got.now, *want.now = now, now
				got.DispatchAll()
				want.DispatchAll()
				now++
				*got.now, *want.now = now, now
				before := runners(got)
				spent := make([]vtime.Duration, len(before))
				for i, l := range before {
					if l != nilIdx {
						spent[i] = threadOf(got, l).CPUTime
					}
				}
				got.PreemptPass()
				after := runners(got)
				evictions := 0
				for i, l := range before {
					if l == nilIdx {
						continue
					}
					evicted, charged := after[i] != l, threadOf(got, l).CPUTime != spent[i]
					if evicted != charged {
						t.Fatalf("%s seed %d step %d: LWP %d on CPU %d: evicted %v, charged %v",
							policy, seed, step, l, i, evicted, charged)
					}
					if evicted {
						evictions++
					}
				}
				if evictions > 0 {
					preempted++
				}
				refPreemptPass(want)
				g, w := snapshot(got), snapshot(want)
				if g != w {
					t.Fatalf("%s seed %d step %d:\n got  %s\n want %s", policy, seed, step, g, w)
				}
				gGot.perturb(got)
				gWant.perturb(want)
				for _, c := range []*Core{got, want} {
					if err := c.CheckLinks(); err != nil {
						t.Fatalf("%s seed %d step %d: %v", policy, seed, step, err)
					}
				}
			}
		}
	}
	// The generated states must reach the cases the early stop is about.
	if headBound == 0 || boundBehindAny == 0 || preempted == 0 {
		t.Fatalf("coverage: %d states with a CPU-bound head, %d with a CPU-bound LWP behind the first any-CPU LWP, %d passes that preempted",
			headBound, boundBehindAny, preempted)
	}
}
