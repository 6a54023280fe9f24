package core

import (
	"fmt"
	"slices"
	"testing"

	"vppb/internal/hb"
	"vppb/internal/recorder"
	"vppb/internal/sched"
	"vppb/internal/threadlib"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// Differential validation: generate random (but deterministic) structured
// multithreaded programs, record them on the monitored uniprocessor, and
// compare the Simulator's predictions against execution-driven reference
// runs of the same program across machine sizes. This is the strongest
// correctness check the reproduction has: any semantic divergence between
// the trace-driven replay and the live kernel shows up as a timing gap.

// rng is a tiny deterministic generator for program synthesis.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// genProgram builds a random fork-join program with mutexes, semaphores
// and a barrier. All decisions derive from the seed, so the recording and
// every reference run execute identical logic.
//
// A plain program asks for one LWP per worker. An oversubscribed one asks
// for fewer or none, so on a machine with a dynamic pool smaller than the
// worker count its threads wait for an LWP in the user run queue; its
// workers change their priorities (thr_setprio), which orders that queue;
// and in half the programs one worker is bound to CPU 0, where under ts
// its boosted LWP preempts a demoted runner that may move on to an idle
// CPU at once. The oversubscribed choices come from a stream of their
// own, so both variants of a seed share every other decision.
func genProgram(seed uint64, oversubscribed bool) func(p *threadlib.Process) func(*threadlib.Thread) {
	return func(p *threadlib.Process) func(*threadlib.Thread) {
		r := &rng{s: seed}
		o := &rng{s: ^seed}
		nWorkers := 2 + r.intn(6)
		nMutexes := 1 + r.intn(3)
		mutexes := make([]*threadlib.Mutex, nMutexes)
		for i := range mutexes {
			mutexes[i] = p.NewMutex(fmt.Sprintf("m%d", i))
		}
		sem := p.NewSema("gate", r.intn(3))
		useBarrier := r.intn(2) == 0
		var barM *threadlib.Mutex
		var barCV *threadlib.Cond
		arrived, gen := 0, 0
		if useBarrier {
			barM = p.NewMutex("bar.m")
			barCV = p.NewCond("bar.cv")
		}
		barrier := func(w *threadlib.Thread) {
			barM.Lock(w)
			g := gen
			arrived++
			if arrived == nWorkers {
				arrived = 0
				gen++
				barCV.Broadcast(w)
			} else {
				for g == gen {
					barCV.Wait(w, barM)
				}
			}
			barM.Unlock(w)
		}

		// Pre-draw each worker's script so goroutine scheduling cannot
		// perturb the random stream.
		type step struct {
			kind   int // 0 compute, 1 lock, 2 sema wait, 3 sema post, 4 yield, 5 trylock, 6 setprio
			arg    int
			amount vtime.Duration
			inside vtime.Duration
		}
		scripts := make([][]step, nWorkers)
		waits := 0
		for i := range scripts {
			n := 3 + r.intn(8)
			for k := 0; k < n; k++ {
				st := step{kind: r.intn(6)}
				st.arg = r.intn(nMutexes)
				st.amount = vtime.Duration(1+r.intn(20)) * vtime.Millisecond
				st.inside = vtime.Duration(1+r.intn(5)) * vtime.Millisecond
				if st.kind == 2 {
					waits++
				}
				scripts[i] = append(scripts[i], st)
			}
		}
		concurrency, pinned := nWorkers, -1
		if oversubscribed {
			concurrency = o.intn(nWorkers) // 0: no thr_setconcurrency call
			for i, script := range scripts {
				at := o.intn(len(script) + 1)
				scripts[i] = slices.Insert(script, at, step{kind: 6, arg: o.intn(60)})
			}
			if o.intn(2) == 0 {
				pinned = o.intn(nWorkers)
			}
		}
		// Main pre-posts one token per wait so no circular wait chain can
		// form regardless of the workers' post/wait interleaving (worker
		// posts then only add slack).
		topUp := waits
		return func(main *threadlib.Thread) {
			if concurrency > 0 {
				main.SetConcurrency(concurrency)
			}
			for i := 0; i < topUp; i++ {
				sem.Post(main)
			}
			var ids []trace.ThreadID
			for i := 0; i < nWorkers; i++ {
				script := scripts[i]
				opts := []threadlib.CreateOption{threadlib.WithName(fmt.Sprintf("w%d", i))}
				if i == pinned {
					opts = append(opts, threadlib.BoundToCPU(0))
				}
				ids = append(ids, main.Create(func(w *threadlib.Thread) {
					for _, st := range script {
						switch st.kind {
						case 0:
							w.Compute(st.amount)
						case 1:
							m := mutexes[st.arg]
							m.Lock(w)
							w.Compute(st.inside)
							m.Unlock(w)
						case 2:
							sem.Wait(w)
						case 3:
							sem.Post(w)
						case 4:
							w.Compute(st.amount / 2)
							w.Yield()
						case 5:
							m := mutexes[st.arg]
							if m.TryLock(w) {
								w.Compute(st.inside)
								m.Unlock(w)
							} else {
								w.Compute(st.inside / 2)
							}
						case 6:
							w.SetPriority(st.arg)
						}
					}
					if useBarrier {
						barrier(w)
					}
				}, opts...))
			}
			for _, id := range ids {
				main.Join(id)
			}
		}
	}
}

func TestDifferentialRandomPrograms(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	worst := 0.0
	for _, seed := range seeds {
		prog := genProgram(seed, false)
		log, _, err := recorder.Record(prog, recorder.Options{Program: fmt.Sprintf("rand-%d", seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := log.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cpus := range []int{1, 2, 3, 8} {
			pred, err := Simulate(log, Machine{CPUs: cpus})
			if err != nil {
				t.Fatalf("seed %d cpus %d: %v", seed, cpus, err)
			}
			if err := pred.Timeline.Validate(); err != nil {
				t.Fatalf("seed %d cpus %d timeline: %v", seed, cpus, err)
			}
			ref := reference(t, prog, cpus, 0)
			gap := relGap(pred.Duration, ref)
			if gap > worst {
				worst = gap
			}
			// Trylock outcomes and barrier reordering are the method's
			// inherent approximations (paper section 6): a live run's
			// trylock may succeed where the recorded one failed, making
			// the reference execute different work than the trace
			// describes. These adversarial programs bound that error at
			// ~30%; real applications (Table 1) stay within 6%.
			if gap > 0.35 {
				t.Errorf("seed %d cpus %d: prediction %v vs reference %v (gap %.1f%%)",
					seed, cpus, pred.Duration, ref, 100*gap)
			}
			if cpus == 1 && gap > 0.02 {
				t.Errorf("seed %d: uniprocessor replay off by %.2f%% (%v vs %v)",
					seed, 100*gap, pred.Duration, ref)
			}
		}
	}
	t.Logf("worst prediction gap across %d random programs: %.1f%%", len(seeds), 100*worst)
}

func relGap(a, b vtime.Duration) float64 {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return 0
	}
	return d / float64(b)
}

// TestDifferentialPolicyIdentity is the fidelity-by-construction check the
// shared scheduler core makes possible: for EVERY registered policy, a
// program recorded under policy P and replayed by the Simulator under P on
// the same machine shape (1 CPU, 1 LWP) reproduces the recorded timeline
// EXACTLY — both engines drive their state machines through one
// sched.Core, so the schedules cannot diverge. Probe cost is zeroed so the
// recording has no intrusion to deduct; equality is then exact, not
// approximate.
func TestDifferentialPolicyIdentity(t *testing.T) {
	for _, policy := range sched.Names() {
		for _, seed := range []uint64{3, 21, 89} {
			prog := genProgram(seed, false)
			costs := threadlib.DefaultCosts()
			costs.Probe = 0
			log, res, err := recorder.Record(prog, recorder.Options{
				Program: fmt.Sprintf("ident-%s-%d", policy, seed),
				Costs:   &costs,
				Policy:  policy,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			pred, err := Simulate(log, Machine{CPUs: 1, LWPs: 1, Policy: policy})
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			if pred.Duration != res.Duration {
				t.Errorf("%s seed %d: replay %v != recorded %v (diff %v) — the engines scheduled differently",
					policy, seed, pred.Duration, res.Duration, pred.Duration-res.Duration)
			}
		}
	}
}

// TestDifferentialPoliciesApproximate extends the multiprocessor
// differential check across the non-default policies: predictions under
// fifo and rr must track execution-driven reference runs configured with
// the same policy, within the same tolerance the ts policy is held to.
func TestDifferentialPoliciesApproximate(t *testing.T) {
	for _, policy := range []string{"fifo", "rr"} {
		for _, seed := range []uint64{5, 34} {
			prog := genProgram(seed, false)
			log, _, err := recorder.Record(prog, recorder.Options{
				Program: fmt.Sprintf("rand-%s-%d", policy, seed),
				Policy:  policy,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			for _, cpus := range []int{2, 4} {
				pred, err := Simulate(log, Machine{CPUs: cpus, Policy: policy})
				if err != nil {
					t.Fatalf("%s seed %d cpus %d: %v", policy, seed, cpus, err)
				}
				ref := referencePolicy(t, prog, cpus, policy)
				if gap := relGap(pred.Duration, ref); gap > 0.35 {
					t.Errorf("%s seed %d cpus %d: prediction %v vs reference %v (gap %.1f%%)",
						policy, seed, cpus, pred.Duration, ref, 100*gap)
				}
			}
		}
	}
}

// referencePolicy is an unmonitored execution-driven run under the given
// scheduling policy, with the Simulator-invisible overheads zeroed so the
// comparison isolates scheduling behaviour.
func referencePolicy(t *testing.T, prog func(p *threadlib.Process) func(*threadlib.Thread), cpus int, policy string) vtime.Duration {
	t.Helper()
	costs := threadlib.DefaultCosts()
	costs.ContextSwitch = 0
	costs.Migration = 0
	p := threadlib.NewProcess(threadlib.Config{Program: "ref", CPUs: cpus, Policy: policy, Costs: &costs})
	res, err := p.Run(prog(p))
	if err != nil {
		t.Fatal(err)
	}
	return res.Duration
}

// TestDifferentialSpeedupMonotone checks a sanity property over random
// programs: predicted execution time never increases when CPUs are added
// (for these lock/semaphore/barrier programs with FIFO queueing).
func TestDifferentialSpeedupMonotone(t *testing.T) {
	for _, seed := range []uint64{7, 11, 19, 27} {
		prog := genProgram(seed, false)
		log, _, err := recorder.Record(prog, recorder.Options{Program: "mono"})
		if err != nil {
			t.Fatal(err)
		}
		var prev vtime.Duration
		for i, cpus := range []int{1, 2, 4, 8} {
			res, err := Simulate(log, Machine{CPUs: cpus})
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && float64(res.Duration) > float64(prev)*1.02 {
				t.Errorf("seed %d: %d CPUs slower than fewer (%v > %v)", seed, cpus, res.Duration, prev)
			}
			prev = res.Duration
		}
	}
}

// TestLowerBoundOnGeneratedPrograms checks the premise analysis.Optimize
// prunes on: no replay of a recording, under any policy on any CPU count,
// finishes before lb(c) = max(SerialDemand, Work/c). The comparison is
// exact. hb's mandatory chain is deliberately not part of the bound: these
// programs have several posters on one semaphore and a condition barrier
// whose last arrival varies, so a replay may pair posts and wakes
// differently from the recording and beat the recorded chain.
func TestLowerBoundOnGeneratedPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		log, _, err := recorder.Record(genProgram(seed, false), recorder.Options{Program: fmt.Sprintf("rand-%d", seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := hb.Analyze(log)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof, err := trace.BuildProfile(log)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, policy := range []string{"ts", "fifo", "rr"} {
			for _, cpus := range []int{1, 2, 3, 4, 8} {
				res, err := SimulateProfile(prof, Machine{CPUs: cpus, Policy: policy, DiscardTimeline: true})
				if err != nil {
					t.Fatalf("seed %d %s@%d: %v", seed, policy, cpus, err)
				}
				lb := max(a.SerialDemand, vtime.Duration(int64(a.Work)/int64(cpus)))
				if res.Duration < lb {
					t.Errorf("seed %d %s@%d: replay %v beats the lower bound %v (serial demand %v, work %v)",
						seed, policy, cpus, res.Duration, lb, a.SerialDemand, a.Work)
				}
			}
		}
	}
}
