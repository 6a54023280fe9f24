package syncobj

import (
	"fmt"
	"strings"
	"testing"

	"vppb/internal/trace"
)

// fakeEngine logs every grant the Core makes, in order.
type fakeEngine struct{ log []string }

func (e *fakeEngine) add(format string, args ...any) {
	e.log = append(e.log, fmt.Sprintf(format, args...))
}

func (e *fakeEngine) Wake(ti, by int32)    { e.add("wake %d by %d", ti, by) }
func (e *fakeEngine) Joined(ti, z int32)   { e.add("joined %d reaped %d", ti, z) }
func (e *fakeEngine) StartIO(oi, ti int32) { e.add("io %d serves %d", oi, ti) }

func (e *fakeEngine) take(t *testing.T, want ...string) {
	t.Helper()
	if got := strings.Join(e.log, "; "); got != strings.Join(want, "; ") {
		t.Fatalf("grants = %q, want %q", got, strings.Join(want, "; "))
	}
	e.log = nil
}

func newCore(threads int, kinds ...trace.ObjectKind) (*Core, *fakeEngine) {
	e := &fakeEngine{}
	c := New(e, threads, len(kinds))
	for range threads {
		c.AddThread()
	}
	for _, k := range kinds {
		c.AddObject(k, 0)
	}
	return c, e
}

// TestGrantRules walks each object kind through contention and checks
// the order in which the Core hands it out.
func TestGrantRules(t *testing.T) {
	t.Run("mutex hands off FIFO", func(t *testing.T) {
		c, e := newCore(3, trace.ObjMutex)
		if !c.MutexLock(0, 0) || c.MutexLock(0, 1) || c.MutexLock(0, 2) {
			t.Fatal("only the first lock is granted at once")
		}
		c.MutexUnlock(0, 0)
		e.take(t, "wake 1 by 0")
		if c.Owner(0) != 1 || c.WaitingOn(2) != 0 {
			t.Fatalf("owner %d, T2 waits on %d", c.Owner(0), c.WaitingOn(2))
		}
	})
	t.Run("semaphore", func(t *testing.T) {
		c, e := newCore(2, trace.ObjSema)
		if c.SemaTryWait(0) || c.SemaWait(0, 0) {
			t.Fatal("a zero count granted")
		}
		c.SemaPost(0, 1)
		e.take(t, "wake 0 by 1")
		c.SemaPost(0, 1)
		if !c.SemaTryWait(0) {
			t.Fatal("a post without waiters did not count")
		}
	})
	t.Run("signal re-acquires the mutex", func(t *testing.T) {
		c, e := newCore(3, trace.ObjMutex, trace.ObjCond)
		c.MutexLock(0, 0)
		c.CondWait(1, 0, 0) // releases the mutex
		c.MutexLock(0, 1)
		c.CondWait(1, 0, 2) // T2 does not hold it: nothing to release
		if c.CondLen(1) != 2 || c.Owner(0) != 1 {
			t.Fatalf("waiters %d, owner %d", c.CondLen(1), c.Owner(0))
		}
		c.CondSignal(1, 1) // T0 queues on the held mutex
		e.take(t)
		if c.WaitingOn(0) != 0 {
			t.Fatalf("signalled T0 waits on %d, want the mutex", c.WaitingOn(0))
		}
		if !c.CondCancel(1, 2) || c.CondCancel(1, 0) {
			t.Fatal("a timeout must cancel only a thread still on the condition")
		}
		c.MutexUnlock(0, 1)
		e.take(t, "wake 0 by 1")
	})
	t.Run("rwlock writer preference", func(t *testing.T) {
		c, e := newCore(4, trace.ObjRWLock)
		if !c.RdLock(0, 0) || c.WrLock(0, 1) || c.RdLock(0, 2) || c.RdLock(0, 3) {
			t.Fatal("a reader was admitted ahead of the waiting writer")
		}
		c.RWUnlock(0, 0)
		e.take(t, "wake 1 by 0")
		c.RWUnlock(0, 1)
		e.take(t, "wake 2 by 1", "wake 3 by 1")
		if !c.RWHolds(0, 3) || c.RWUnlock(0, 1) {
			t.Fatal("reader set wrong after the writer left")
		}
	})
	t.Run("device serves FIFO", func(t *testing.T) {
		c, e := newCore(2, trace.ObjDevice)
		c.IO(0, 0)
		c.IO(0, 1)
		e.take(t, "io 0 serves 0")
		c.IODone(0)
		e.take(t, "wake 0 by -1", "io 0 serves 1")
	})
	t.Run("joins", func(t *testing.T) {
		c, e := newCore(4)
		if c.Join(0, 1) || c.Join(2, Nil) {
			t.Fatal("joined a live thread")
		}
		c.Exit(1) // reaped by its named joiner; the wildcard keeps waiting
		e.take(t, "joined 0 reaped 1", "wake 0 by 1")
		c.Exit(3)
		e.take(t, "joined 2 reaped 3", "wake 2 by 3")
		c.Exit(0) // nobody joins: a zombie
		if !c.Join(2, Nil) || !c.Join(3, 1) {
			t.Fatal("an exited thread was not reaped at once")
		}
		e.take(t, "joined 2 reaped 0", "joined 3 reaped 1")
	})
}
