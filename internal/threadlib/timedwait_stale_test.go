package threadlib

import (
	"fmt"
	"strings"
	"testing"

	"vppb/internal/vtime"
)

// TestSignalledTimedWaitOutlivesItsTimer: a cond_timedwait that a signal
// ends early must not act at its deadline, when the thread has moved on
// to other calls.
func TestSignalledTimedWaitOutlivesItsTimer(t *testing.T) {
	p := NewProcess(Config{CPUs: 2, Costs: zeroCosts()})
	m := p.NewMutex("m")
	cv := p.NewCond("cv")
	res, err := p.Run(func(th *Thread) {
		w := th.Create(func(w *Thread) {
			m.Lock(w)
			if !cv.TimedWait(w, m, 10*vtime.Millisecond) {
				t.Error("the signalled wait reported a timeout")
			}
			m.Unlock(w)
			w.Compute(5 * vtime.Millisecond)
			w.Yield() // a call without an object when the timer fires
			w.Compute(20 * vtime.Millisecond)
		})
		th.Compute(1 * vtime.Millisecond)
		m.Lock(th)
		cv.Signal(th)
		m.Unlock(th)
		th.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 26*vtime.Millisecond {
		t.Fatalf("duration = %v, want 26ms", res.Duration)
	}
}

// TestStaleTimedWaitTimer: a signal ends a cond_timedwait early, and the
// thread waits on the same condition again, with a longer timeout, before
// the first timeout falls due. The first wait's timer must not end the
// second wait, which the second signal ends.
func TestStaleTimedWaitTimer(t *testing.T) {
	p := NewProcess(Config{CPUs: 2, Costs: zeroCosts()})
	m := p.NewMutex("m")
	cv := p.NewCond("cv")
	var first, second bool
	var ended vtime.Time
	res, err := p.Run(func(th *Thread) {
		w := th.Create(func(w *Thread) {
			m.Lock(w)
			first = cv.TimedWait(w, m, 10*vtime.Millisecond)
			second = cv.TimedWait(w, m, 100*vtime.Millisecond)
			ended = p.Now()
			m.Unlock(w)
		})
		for _, at := range []vtime.Duration{1 * vtime.Millisecond, 29 * vtime.Millisecond} {
			th.Compute(at)
			m.Lock(th)
			cv.Signal(th)
			m.Unlock(th)
		}
		th.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := vtime.Time(0).Add(30 * vtime.Millisecond)
	if !first || !second || ended != want || res.Duration != 30*vtime.Millisecond {
		t.Fatalf("waits returned %v and %v, the second ending at %v in a %v run; want both signalled, at %v in a 30ms run",
			first, second, ended, res.Duration, want)
	}
}

// TestSignalledTimedWaitDisarmsTimer: a worker's 100 ms cond_timedwait is
// signalled at 1 ms, then both threads wait on a semaphore no one posts.
// The signal ends the wait and its timeout, so the deadlock is reported
// at 1 ms, when both threads blocked, not at the 100 ms deadline.
func TestSignalledTimedWaitDisarmsTimer(t *testing.T) {
	p := NewProcess(Config{CPUs: 2, Costs: zeroCosts()})
	m := p.NewMutex("m")
	cv := p.NewCond("cv")
	never := p.NewSema("never", 0)
	var signalled bool
	_, err := p.Run(func(th *Thread) {
		th.Create(func(w *Thread) {
			m.Lock(w)
			signalled = cv.TimedWait(w, m, 100*vtime.Millisecond)
			m.Unlock(w)
			never.Wait(w)
		})
		th.Compute(1 * vtime.Millisecond)
		m.Lock(th)
		cv.Signal(th)
		m.Unlock(th)
		never.Wait(th)
	})
	want := fmt.Sprintf("threadlib: deadlock at %v:", vtime.Time(0).Add(1*vtime.Millisecond))
	if !signalled || err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("wait signalled %v, err = %v; want a signalled wait and an error starting %q", signalled, err, want)
	}
}
