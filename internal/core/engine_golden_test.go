package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vppb/internal/recorder"
	"vppb/internal/source"
	"vppb/internal/threadlib"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

var updateEngines = flag.Bool("update-engines", false, "rewrite testdata/engines.sha256")

const enginesGolden = "testdata/engines.sha256"

// engineProgram is one hand-written program of TestEngineGolden. calls
// lists the calls every recording of it must complete (see hasCall), so a
// program that stops exercising its path fails loudly instead of pinning
// less.
type engineProgram struct {
	name  string
	setup recorder.Setup
	calls []trace.Call
}

// enginePrograms cover each object path the recorder's kernel and the
// Simulator share or treat differently.
var enginePrograms = []engineProgram{
	{"mutex", goldenMutex, []trace.Call{trace.CallMutexLock, trace.CallMutexTryLock, trace.CallMutexUnlock}},
	{"sema", goldenSema, []trace.Call{trace.CallSemaWait, trace.CallSemaTryWait, trace.CallSemaPost}},
	{"cond", goldenCond, []trace.Call{trace.CallCondWait, trace.CallCondSignal, trace.CallCondBroadcast}},
	{"timedwait", goldenTimedWait, []trace.Call{trace.CallCondTimedWait, trace.CallCondSignal}},
	{"rwlock", goldenRWLock, []trace.Call{trace.CallRWRdLock, trace.CallRWWrLock, trace.CallRWUnlock}},
	{"io", goldenIO, []trace.Call{trace.CallIO}},
	{"suspend", goldenSuspend, []trace.Call{trace.CallThrSuspend, trace.CallThrContinue}},
	{"threads", goldenThreads, []trace.Call{trace.CallThrJoin, trace.CallThrSetPrio, trace.CallThrSetConcurrency}},
}

const ms = vtime.Millisecond

// goldenMutex: a holder blocks on a gate while holding the mutex, so the
// second thread's trylock fails; it then contends, and a trylock after
// the third contender is done succeeds.
func goldenMutex(p *threadlib.Process) func(*threadlib.Thread) {
	m := p.NewMutex("m")
	gate := p.NewSema("gate", 0)
	done := p.NewSema("done", 0)
	return func(th *threadlib.Thread) {
		a := th.Create(func(w *threadlib.Thread) {
			m.Lock(w)
			gate.Wait(w)
			w.Compute(5 * ms)
			m.Unlock(w)
		}, threadlib.WithName("holder"))
		b := th.Create(func(w *threadlib.Thread) {
			w.Compute(1 * ms)
			if m.TryLock(w) {
				m.Unlock(w)
			}
			gate.Post(w)
			m.Lock(w)
			w.Compute(2 * ms)
			m.Unlock(w)
			done.Wait(w)
			if m.TryLock(w) {
				w.Compute(1 * ms)
				m.Unlock(w)
			}
		}, threadlib.WithName("tryer"))
		c := th.Create(func(w *threadlib.Thread) {
			w.Compute(2 * ms)
			m.Lock(w)
			w.Compute(3 * ms)
			m.Unlock(w)
			done.Post(w)
		}, threadlib.WithName("contender"))
		th.Join(a)
		th.Join(b)
		th.Join(c)
	}
}

// goldenSema: a wait that succeeds on the initial count, a trywait that
// fails, a wait that blocks until a post, and a trywait that succeeds.
func goldenSema(p *threadlib.Process) func(*threadlib.Thread) {
	s := p.NewSema("s", 1)
	return func(th *threadlib.Thread) {
		a := th.Create(func(w *threadlib.Thread) {
			s.Wait(w)
			w.Compute(2 * ms)
			s.TryWait(w)
			s.Wait(w)
			w.Compute(1 * ms)
		})
		b := th.Create(func(w *threadlib.Thread) {
			w.Compute(3 * ms)
			s.Post(w)
			s.Post(w)
			s.TryWait(w)
			w.Compute(1 * ms)
		})
		th.Join(a)
		th.Join(b)
	}
}

// goldenCond: two consumers wait on a condition a producer signals (once
// more than needed), then
// four workers meet at a broadcast barrier. The last-created worker
// arrives last on the uniprocessor recording but first on a
// multiprocessor, so replay takes the section 6 barrier fix.
func goldenCond(p *threadlib.Process) func(*threadlib.Thread) {
	m := p.NewMutex("m")
	cv := p.NewCond("items")
	items := 0
	bm := p.NewMutex("bar.m")
	bcv := p.NewCond("bar.cv")
	arrived, gen := 0, 0
	const parties = 4
	return func(th *threadlib.Thread) {
		th.SetConcurrency(parties)
		var ids []trace.ThreadID
		for i := 0; i < 2; i++ {
			ids = append(ids, th.Create(func(w *threadlib.Thread) {
				m.Lock(w)
				for items == 0 {
					cv.Wait(w, m)
				}
				items--
				m.Unlock(w)
				w.Compute(2 * ms)
			}))
		}
		ids = append(ids, th.Create(func(w *threadlib.Thread) {
			for i := 0; i < 3; i++ {
				w.Compute(3 * ms)
				m.Lock(w)
				if i < 2 {
					items++
				}
				cv.Signal(w) // the third finds no waiter
				m.Unlock(w)
			}
		}))
		for i := 0; i < parties; i++ {
			arrive := vtime.Duration(parties-i) * 10 * ms
			ids = append(ids, th.Create(func(w *threadlib.Thread) {
				w.Compute(arrive)
				bm.Lock(w)
				g := gen
				arrived++
				if arrived == parties {
					arrived = 0
					gen++
					bcv.Broadcast(w)
				} else {
					for g == gen {
						bcv.Wait(w, bm)
					}
				}
				bm.Unlock(w)
				w.Compute(5 * ms)
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
	}
}

// goldenTimedWait: one cond_timedwait times out before anyone signals,
// the other is signalled before its timeout.
func goldenTimedWait(p *threadlib.Process) func(*threadlib.Thread) {
	m := p.NewMutex("m")
	cv := p.NewCond("cv")
	return func(th *threadlib.Thread) {
		a := th.Create(func(w *threadlib.Thread) {
			m.Lock(w)
			cv.TimedWait(w, m, 5*ms)
			m.Unlock(w)
			w.Compute(1 * ms)
		}, threadlib.WithName("times-out"))
		b := th.Create(func(w *threadlib.Thread) {
			m.Lock(w)
			cv.TimedWait(w, m, 100*ms)
			m.Unlock(w)
			w.Compute(1 * ms)
		}, threadlib.WithName("signalled"))
		c := th.Create(func(w *threadlib.Thread) {
			w.Compute(20 * ms)
			m.Lock(w)
			cv.Signal(w)
			m.Unlock(w)
		}, threadlib.WithName("signaller"))
		th.Join(a)
		th.Join(b)
		th.Join(c)
	}
}

// goldenRWLock: a reader holds the lock while blocked on a gate, a writer
// queues behind it, and a later reader queues behind the waiting writer
// (writer preference). The writer's second lock is uncontended.
func goldenRWLock(p *threadlib.Process) func(*threadlib.Thread) {
	rw := p.NewRWLock("rw")
	gate := p.NewSema("gate", 0)
	return func(th *threadlib.Thread) {
		var ids []trace.ThreadID
		ids = append(ids, th.Create(func(w *threadlib.Thread) {
			rw.RdLock(w)
			gate.Wait(w)
			w.Compute(4 * ms)
			rw.Unlock(w)
		}, threadlib.WithName("reader1")))
		ids = append(ids, th.Create(func(w *threadlib.Thread) {
			w.Compute(1 * ms)
			rw.WrLock(w)
			w.Compute(3 * ms)
			rw.Unlock(w)
			w.Compute(30 * ms)
			rw.WrLock(w) // uncontended by now
			rw.Unlock(w)
		}, threadlib.WithName("writer")))
		for i := 0; i < 2; i++ {
			ids = append(ids, th.Create(func(w *threadlib.Thread) {
				w.Compute(2 * ms)
				rw.RdLock(w)
				w.Compute(2 * ms)
				rw.Unlock(w)
			}, threadlib.WithName(fmt.Sprintf("reader%d", i+2))))
		}
		ids = append(ids, th.Create(func(w *threadlib.Thread) {
			w.Compute(3 * ms)
			gate.Post(w)
		}, threadlib.WithName("poster")))
		for _, id := range ids {
			th.Join(id)
		}
	}
}

// goldenIO: three threads queue on two FIFO devices.
func goldenIO(p *threadlib.Process) func(*threadlib.Thread) {
	disk := p.NewDevice("disk")
	net := p.NewDevice("net")
	return func(th *threadlib.Thread) {
		var ids []trace.ThreadID
		for i := 0; i < 3; i++ {
			k := vtime.Duration(i + 1)
			ids = append(ids, th.Create(func(w *threadlib.Thread) {
				w.Compute(k * ms)
				disk.IO(w, 10*ms)
				w.Compute(2 * ms)
				net.IO(w, k*4*ms)
				disk.IO(w, 3*ms)
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
	}
}

// goldenSuspend: thr_suspend of the caller itself, of threads that are
// running or runnable (which, depends on the CPU count; the bound one is
// queued with its own LWP, the unbound ones on the user run queue), and
// of a thread blocked on a semaphore whose
// grant arrives while suspended.
func goldenSuspend(p *threadlib.Process) func(*threadlib.Thread) {
	gate := p.NewSema("gate", 0)
	dev := p.NewDevice("timer")
	return func(th *threadlib.Thread) {
		self := th.Create(func(w *threadlib.Thread) {
			w.Compute(2 * ms)
			w.Suspend(w.ID())
			w.Compute(3 * ms)
		}, threadlib.WithName("self"))
		busy := th.Create(func(w *threadlib.Thread) {
			w.Compute(60 * ms)
		}, threadlib.WithName("busy"))
		sleeper := th.Create(func(w *threadlib.Thread) {
			gate.Wait(w)
			w.Compute(4 * ms)
		}, threadlib.WithName("sleeper"))
		queued := th.Create(func(w *threadlib.Thread) {
			w.Compute(8 * ms)
		}, threadlib.Bound(), threadlib.WithName("queued"))
		parked := th.Create(func(w *threadlib.Thread) {
			w.Compute(6 * ms)
		}, threadlib.WithName("parked"))
		th.Suspend(queued)
		th.Suspend(parked)
		dev.IO(th, 10*ms)
		th.Suspend(busy)
		th.Suspend(sleeper)
		gate.Post(th)
		th.Compute(5 * ms)
		th.Continue(sleeper)
		th.Continue(busy)
		th.Continue(queued)
		th.Continue(parked)
		dev.IO(th, 20*ms)
		th.Continue(self)
		for _, id := range []trace.ThreadID{self, busy, sleeper, queued, parked} {
			th.Join(id)
		}
	}
}

// goldenThreads: thr_setconcurrency, a join of a thread that already
// exited, a bound thread, thr_setprio, thr_yield and wildcard joins.
func goldenThreads(p *threadlib.Process) func(*threadlib.Thread) {
	m := p.NewMutex("m")
	dev := p.NewDevice("timer")
	return func(th *threadlib.Thread) {
		th.SetConcurrency(3)
		early := th.Create(func(w *threadlib.Thread) {
			w.Compute(1 * ms)
		}, threadlib.WithName("early"))
		dev.IO(th, 30*ms)
		th.Join(early) // a zombie by now
		th.Create(func(w *threadlib.Thread) {
			w.Compute(6 * ms)
			m.Lock(w)
			w.Compute(2 * ms)
			m.Unlock(w)
		}, threadlib.Bound(), threadlib.WithName("bound"))
		th.Create(func(w *threadlib.Thread) {
			w.SetPriority(40)
			w.Compute(9 * ms)
			m.Lock(w)
			w.Compute(1 * ms)
			m.Unlock(w)
		}, threadlib.WithName("prio"))
		th.Create(func(w *threadlib.Thread) {
			w.Compute(3 * ms)
			w.Yield()
			w.Compute(3 * ms)
		}, threadlib.WithName("yielder"))
		th.SetPriority(20)
		for i := 0; i < 3; i++ {
			th.JoinAny()
		}
	}
}

// TestEngineGolden pins, byte for byte, what both engines make of each
// program in enginePrograms: the recorded text log under ts, fifo and rr;
// the replay of each recording under its policy at 1, 2 and 4 CPUs, with
// and without a communication delay (timeline JSON and duration); and an
// execution-driven run on 2 CPUs. Source locations are normalized as in
// the recorder's TestRecordedLogsGolden. Run with -update-engines to
// rewrite the golden.
func TestEngineGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	norm := func(loc *source.Loc) {
		goroot := runtime.GOROOT()
		switch {
		case !filepath.IsAbs(loc.File):
			// Empty, or already normalized (a replay copies the
			// recording's locations).
		case strings.HasPrefix(loc.File, root+"/"):
			loc.File = loc.File[len(root)+1:]
		case goroot != "" && strings.HasPrefix(loc.File, goroot+"/"):
			loc.File, loc.Line = "GOROOT", 0
		default:
			t.Fatalf("location %s outside the repository and GOROOT", loc.File)
		}
	}
	timelineSum := func(tl *trace.Timeline) string {
		for i := range tl.Threads {
			for j := range tl.Threads[i].Events {
				norm(&tl.Threads[i].Events[j].Event.Loc)
			}
		}
		data, err := trace.MarshalTimeline(tl)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x %v", sha256.Sum256(data), tl.Duration)
	}
	var got strings.Builder
	for _, prog := range enginePrograms {
		for _, policy := range []string{"ts", "fifo", "rr"} {
			name := prog.name + " " + policy
			log, _, err := recorder.Record(prog.setup, recorder.Options{Program: prog.name, Policy: policy})
			if err != nil {
				t.Fatalf("%s: record: %v", name, err)
			}
			for i := range log.Events {
				norm(&log.Events[i].Loc)
			}
			for _, c := range prog.calls {
				if !hasCall(log, c) {
					t.Fatalf("%s: recording has no %v", name, c)
				}
			}
			fmt.Fprintf(&got, "%s record %x\n", name, sha256.Sum256(trace.AppendText(nil, log)))
			for _, cpus := range []int{1, 2, 4} {
				for _, delay := range []vtime.Duration{0, 300 * vtime.Microsecond} {
					res, err := Simulate(log, Machine{CPUs: cpus, CommDelay: delay, Policy: policy})
					if err != nil {
						t.Fatalf("%s: replay cpus=%d delay=%v: %v", name, cpus, delay, err)
					}
					fmt.Fprintf(&got, "%s replay cpus=%d delay=%v %s\n", name, cpus, delay, timelineSum(res.Timeline))
				}
			}
			p := threadlib.NewProcess(threadlib.Config{Program: prog.name, CPUs: 2, Policy: policy, CollectTimeline: true})
			res, err := p.Run(prog.setup(p))
			if err != nil {
				t.Fatalf("%s: execution-driven: %v", name, err)
			}
			fmt.Fprintf(&got, "%s exec cpus=2 %s\n", name, timelineSum(res.Timeline))
		}
	}
	if *updateEngines {
		if err := os.MkdirAll(filepath.Dir(enginesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(enginesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(enginesGolden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run EngineGolden -update-engines` to create it)", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d:\ngot  %s\nwant %s", enginesGolden, i+1, g, w)
			}
		}
	}
}

// hasCall reports whether the log completes call c; for a call with an
// outcome (trylock, trywait, timed wait) it must complete both ways.
func hasCall(log *trace.Log, c trace.Call) bool {
	var ok, failed bool
	for i := range log.Events {
		if ev := &log.Events[i]; ev.Call == c && ev.Class == trace.After {
			ok = ok || ev.OK
			failed = failed || !ev.OK
		}
	}
	switch c {
	case trace.CallMutexTryLock, trace.CallSemaTryWait, trace.CallCondTimedWait:
		return ok && failed
	}
	return ok || failed
}
