package threadlib

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"vppb/internal/vtime"
)

// TestCallThroughAnotherThreadsHandleFails: a library call through
// another thread's handle fails the run with an error naming the caller,
// the handle's thread and the call site, instead of panicking out of Run.
// Main calls its child's handle in one case; in the other the child's
// body calls through main's handle, which its closure captured.
func TestCallThroughAnotherThreadsHandleFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(th *Thread, line *int)
		want string
	}{
		{"main through child", func(th *Thread, line *int) {
			var child *Thread
			th.Create(func(w *Thread) { child = w; w.Compute(vtime.Millisecond) })
			_, _, *line, _ = runtime.Caller(0)
			child.Yield() // the line after Caller's
		}, "threadlib: thread T1 (main) panicked: thr_yield called through thread T4's handle at threadlib/abort_test.go:%d"},
		{"child through main", func(th *Thread, line *int) {
			m := th.Process().NewMutex("m")
			a := th.Create(func(w *Thread) {
				_, _, *line, _ = runtime.Caller(0)
				m.Lock(th) // the line after Caller's
			})
			th.Join(a)
		}, "threadlib: thread T4 (T4) panicked: mutex_lock called through thread T1's handle at threadlib/abort_test.go:%d"},
	} {
		var line int
		_, err := NewProcess(Config{CPUs: 1, Costs: zeroCosts()}).Run(func(th *Thread) { tc.body(th, &line) })
		if want := fmt.Sprintf(tc.want, line+1); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
}

// TestFailedRunLeavesNoGoroutine: whatever fails a run, Run returns with
// every thread body ended, so no goroutine outlives it. Each program also
// parks a thread holding a mutex it unlocks in a deferred call, which the
// abort runs as the body unwinds.
func TestFailedRunLeavesNoGoroutine(t *testing.T) {
	park := func(th *Thread) {
		p := th.Process()
		m, never := p.NewMutex("held"), p.NewSema("never", 0)
		th.Create(func(w *Thread) {
			m.Lock(w)
			defer m.Unlock(w)
			never.Wait(w)
		})
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		body func(th *Thread)
		want string
	}{
		{"deadlock", Config{}, func(th *Thread) {
			park(th)
			th.Process().NewSema("none", 0).Wait(th)
		}, "deadlock"},
		{"livelock", Config{MaxOpsWithoutProgress: 1000}, func(th *Thread) {
			park(th)
			for {
				th.Yield()
			}
		}, "livelock"},
		{"time budget", Config{MaxDuration: 50 * vtime.Millisecond}, func(th *Thread) {
			park(th)
			for {
				th.Compute(10 * vtime.Millisecond)
				th.Yield()
			}
		}, "did not terminate"},
		{"relock", Config{}, func(th *Thread) {
			park(th)
			m := th.Process().NewMutex("m")
			m.Lock(th)
			m.Lock(th)
		}, "relocked"},
		{"unlock not held", Config{}, func(th *Thread) {
			park(th)
			th.Process().NewMutex("m").Unlock(th)
		}, "unlocked mutex"},
		{"user panic", Config{}, func(th *Thread) {
			park(th)
			th.Join(th.Create(func(w *Thread) { panic("boom") }))
		}, "boom"},
		{"wrong thread", Config{}, func(th *Thread) {
			park(th)
			var child *Thread
			th.Create(func(w *Thread) { child = w; w.Compute(vtime.Millisecond) })
			child.Yield()
		}, "called through thread T"},
	} {
		before := runtime.NumGoroutine()
		tc.cfg.CPUs, tc.cfg.Costs = 2, zeroCosts()
		_, err := NewProcess(tc.cfg).Run(tc.body)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
			t.Errorf("%s: %d goroutines after the failed run, %d before", tc.name, n, before)
		}
	}
}
