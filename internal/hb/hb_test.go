package hb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"vppb/internal/source"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// logBuilder assembles hand-crafted recordings for the analyzer tests.
type logBuilder struct {
	log *trace.Log
	seq int64
}

func newLog(program string) *logBuilder {
	return &logBuilder{log: &trace.Log{Header: trace.Header{Program: program, CPUs: 1, LWPs: 1}}}
}

func (b *logBuilder) thread(id trace.ThreadID, name string) *logBuilder {
	b.log.Threads = append(b.log.Threads, trace.ThreadInfo{ID: id, Name: name, BoundCPU: -1})
	return b
}

func (b *logBuilder) object(id trace.ObjectID, kind trace.ObjectKind, name string) *logBuilder {
	b.log.Objects = append(b.log.Objects, trace.ObjectInfo{ID: id, Kind: kind, Name: name})
	return b
}

// add appends ev at virtual time `at` µs, assigning the next sequence
// number; events must be added in log order.
func (b *logBuilder) add(at int64, ev trace.Event) *logBuilder {
	ev.Seq = b.seq
	b.seq++
	ev.Time = vtime.Time(at)
	b.log.Events = append(b.log.Events, ev)
	return b
}

// call appends the Before/After pair of a non-blocking call at one instant.
func (b *logBuilder) call(at int64, tid trace.ThreadID, c trace.Call, obj trace.ObjectID) *logBuilder {
	b.add(at, trace.Event{Thread: tid, Class: trace.Before, Call: c, Object: obj})
	b.add(at, trace.Event{Thread: tid, Class: trace.After, Call: c, Object: obj})
	return b
}

func (b *logBuilder) done(t testing.TB) *trace.Log {
	t.Helper()
	if n := len(b.log.Events); n > 0 {
		b.log.Header.End = b.log.Events[n-1].Time
	}
	if err := b.log.Validate(); err != nil {
		t.Fatalf("built log invalid: %v", err)
	}
	return b.log
}

func mustAnalyze(t *testing.T, l *trace.Log) *Analysis {
	t.Helper()
	a, err := Analyze(l)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a
}

// eventIndex finds the n-th event matching (tid, class, call); n is
// 0-based.
func eventIndex(t *testing.T, l *trace.Log, tid trace.ThreadID, class trace.EventClass, call trace.Call, n int) int {
	t.Helper()
	for i, ev := range l.Events {
		if ev.Thread == tid && ev.Class == class && ev.Call == call {
			if n == 0 {
				return i
			}
			n--
		}
	}
	t.Fatalf("no event %v/%v/%v", tid, class, call)
	return -1
}

// serializedCS builds two threads that each run a 100 µs critical section
// under the same mutex, plus the create/join scaffolding.
func serializedCS(t testing.TB) *trace.Log {
	b := newLog("cs").
		thread(1, "main").thread(4, "w1").thread(5, "w2").
		object(1, trace.ObjMutex, "m")
	b.call(0, 1, trace.CallThrCreate, 0)
	b.log.Events[len(b.log.Events)-2].Target = 4
	b.log.Events[len(b.log.Events)-1].Target = 4
	b.call(0, 1, trace.CallThrCreate, 0)
	b.log.Events[len(b.log.Events)-2].Target = 5
	b.log.Events[len(b.log.Events)-1].Target = 5
	b.add(0, trace.Event{Thread: 1, Class: trace.Before, Call: trace.CallThrJoin})
	b.call(0, 4, trace.CallMutexLock, 1)
	b.add(100, trace.Event{Thread: 4, Class: trace.Before, Call: trace.CallMutexUnlock, Object: 1,
		Loc: source.Loc{File: "w.go", Line: 10}})
	b.add(100, trace.Event{Thread: 4, Class: trace.After, Call: trace.CallMutexUnlock, Object: 1})
	b.call(100, 5, trace.CallMutexLock, 1)
	b.add(200, trace.Event{Thread: 5, Class: trace.Before, Call: trace.CallMutexUnlock, Object: 1,
		Loc: source.Loc{File: "w.go", Line: 10}})
	b.add(200, trace.Event{Thread: 5, Class: trace.After, Call: trace.CallMutexUnlock, Object: 1})
	b.add(200, trace.Event{Thread: 4, Class: trace.Before, Call: trace.CallThrExit})
	b.add(200, trace.Event{Thread: 5, Class: trace.Before, Call: trace.CallThrExit})
	b.add(200, trace.Event{Thread: 1, Class: trace.After, Call: trace.CallThrJoin, Target: 4})
	return b.done(t)
}

func TestMutexHandoffOrdersCriticalSections(t *testing.T) {
	l := serializedCS(t)
	a := mustAnalyze(t, l)

	unlock4 := eventIndex(t, l, 4, trace.After, trace.CallMutexUnlock, 0)
	lock5 := eventIndex(t, l, 5, trace.After, trace.CallMutexLock, 0)
	if !a.HappensBefore(unlock4, lock5) {
		t.Errorf("mutex release must happen before the next acquire")
	}
	lock4b := eventIndex(t, l, 4, trace.Before, trace.CallMutexLock, 0)
	lock5b := eventIndex(t, l, 5, trace.Before, trace.CallMutexLock, 0)
	if !a.Concurrent(lock4b, lock5b) {
		t.Errorf("the two lock attempts are unordered, got HB")
	}

	if a.Work != 200 || a.CritPath != 200 {
		t.Errorf("work=%v critpath=%v, want 200/200", a.Work, a.CritPath)
	}
	if got := a.Bound(); got != 1 {
		t.Errorf("bound=%v, want 1 (fully serialized)", got)
	}

	top, ok := a.TopObject()
	if !ok || top.Name != "m" {
		t.Fatalf("top object = %+v (ok=%v), want mutex m", top, ok)
	}
	if top.Score < 0.99 {
		t.Errorf("serialization score of m = %v, want ~1.0", top.Score)
	}
	if len(a.Sites) == 0 || a.Sites[0].Loc.Line != 10 || a.Sites[0].Time != 200 {
		t.Errorf("top site = %+v, want w.go:10 with 200µs", a.Sites)
	}
	recs := a.PathRecords()
	if len(recs[4]) == 0 || len(recs[5]) == 0 {
		t.Errorf("critical path should traverse both workers, got %v", recs)
	}
}

func TestIndependentThreadsParallelBound(t *testing.T) {
	b := newLog("par").
		thread(1, "main").thread(4, "w1").thread(5, "w2")
	b.call(0, 1, trace.CallThrCreate, 0)
	b.log.Events[len(b.log.Events)-2].Target = 4
	b.log.Events[len(b.log.Events)-1].Target = 4
	b.call(0, 1, trace.CallThrCreate, 0)
	b.log.Events[len(b.log.Events)-2].Target = 5
	b.log.Events[len(b.log.Events)-1].Target = 5
	// Each worker computes 100 µs before exiting (the burst is the gap
	// before its next event).
	b.add(100, trace.Event{Thread: 4, Class: trace.Before, Call: trace.CallThrExit})
	b.add(200, trace.Event{Thread: 5, Class: trace.Before, Call: trace.CallThrExit})
	l := b.done(t)
	a := mustAnalyze(t, l)

	if a.Work != 200 || a.CritPath != 100 {
		t.Errorf("work=%v critpath=%v, want 200/100", a.Work, a.CritPath)
	}
	if got := a.Bound(); got != 2 {
		t.Errorf("bound=%v, want 2", got)
	}
	if got := a.BoundAt(1); got != 1 {
		t.Errorf("BoundAt(1)=%v, want 1", got)
	}
	e4 := eventIndex(t, l, 4, trace.Before, trace.CallThrExit, 0)
	e5 := eventIndex(t, l, 5, trace.Before, trace.CallThrExit, 0)
	if !a.Concurrent(e4, e5) {
		t.Errorf("independent worker bursts must be concurrent")
	}
}

func TestSemaPostWaitEdge(t *testing.T) {
	b := newLog("sema").
		thread(4, "producer").thread(5, "consumer").
		object(1, trace.ObjSema, "items")
	b.add(0, trace.Event{Thread: 5, Class: trace.Before, Call: trace.CallSemaWait, Object: 1})
	b.add(50, trace.Event{Thread: 4, Class: trace.Before, Call: trace.CallSemaPost, Object: 1})
	b.add(50, trace.Event{Thread: 4, Class: trace.After, Call: trace.CallSemaPost, Object: 1})
	b.add(50, trace.Event{Thread: 5, Class: trace.After, Call: trace.CallSemaWait, Object: 1})
	b.add(80, trace.Event{Thread: 5, Class: trace.Before, Call: trace.CallThrExit})
	l := b.done(t)
	a := mustAnalyze(t, l)

	post := eventIndex(t, l, 4, trace.After, trace.CallSemaPost, 0)
	wake := eventIndex(t, l, 5, trace.After, trace.CallSemaWait, 0)
	if !a.HappensBefore(post, wake) {
		t.Errorf("sema post must happen before the woken wait's return")
	}
	// Critical path: producer's 50 µs burst, hand-off, consumer's 30 µs.
	if a.CritPath != 80 {
		t.Errorf("critpath=%v, want 80", a.CritPath)
	}
}

func TestCondSignalEdgeAndTimedWaitLatency(t *testing.T) {
	b := newLog("cond").
		thread(4, "waiter").thread(5, "signaller").
		object(1, trace.ObjCond, "cv").object(2, trace.ObjMutex, "m")
	b.call(0, 4, trace.CallMutexLock, 2)
	b.add(0, trace.Event{Thread: 4, Class: trace.Before, Call: trace.CallCondWait, Object: 1, Mutex: 2})
	b.call(40, 5, trace.CallMutexLock, 2)
	b.call(40, 5, trace.CallCondSignal, 1)
	b.call(40, 5, trace.CallMutexUnlock, 2)
	b.add(40, trace.Event{Thread: 4, Class: trace.After, Call: trace.CallCondWait, Object: 1, Mutex: 2})
	b.call(60, 4, trace.CallMutexUnlock, 2)
	l := b.done(t)
	a := mustAnalyze(t, l)

	sig := eventIndex(t, l, 5, trace.After, trace.CallCondSignal, 0)
	wake := eventIndex(t, l, 4, trace.After, trace.CallCondWait, 0)
	if !a.HappensBefore(sig, wake) {
		t.Errorf("cond signal must happen before the woken wait's return")
	}
	// The waiter's Before(cond_wait) released m; the signaller's lock of m
	// must be ordered after it.
	relEv := eventIndex(t, l, 4, trace.Before, trace.CallCondWait, 0)
	lock5 := eventIndex(t, l, 5, trace.After, trace.CallMutexLock, 0)
	if !a.HappensBefore(relEv, lock5) {
		t.Errorf("cond_wait's implicit mutex release must order the signaller's lock")
	}
}

func TestExpiredTimedWaitChargesTimeout(t *testing.T) {
	b := newLog("timeout").
		thread(4, "w").
		object(1, trace.ObjCond, "cv").object(2, trace.ObjMutex, "m")
	b.call(0, 4, trace.CallMutexLock, 2)
	b.add(0, trace.Event{Thread: 4, Class: trace.Before, Call: trace.CallCondTimedWait, Object: 1, Mutex: 2, Timeout: 30})
	b.add(30, trace.Event{Thread: 4, Class: trace.After, Call: trace.CallCondTimedWait, Object: 1, Mutex: 2, Timeout: 30, OK: false})
	b.call(30, 4, trace.CallMutexUnlock, 2)
	l := b.done(t)
	a := mustAnalyze(t, l)

	// The 30 µs elapsed in the wait is mandatory latency, not compute.
	if a.Work != 0 {
		t.Errorf("work=%v, want 0 (no compute)", a.Work)
	}
	if a.CritPath != 30 {
		t.Errorf("critpath=%v, want 30 (the timeout)", a.CritPath)
	}
	if got := a.Bound(); got != 1 {
		t.Errorf("bound=%v, want clamped to 1", got)
	}
}

func TestIOServiceTimeOnCriticalPath(t *testing.T) {
	b := newLog("io").
		thread(4, "w").
		object(1, trace.ObjDevice, "disk")
	b.add(10, trace.Event{Thread: 4, Class: trace.Before, Call: trace.CallIO, Object: 1, Timeout: 50})
	b.add(60, trace.Event{Thread: 4, Class: trace.After, Call: trace.CallIO, Object: 1, Timeout: 50})
	b.add(70, trace.Event{Thread: 4, Class: trace.Before, Call: trace.CallThrExit})
	l := b.done(t)
	a := mustAnalyze(t, l)

	// 10 µs compute + 50 µs device service + 10 µs compute.
	if a.Work != 20 {
		t.Errorf("work=%v, want 20", a.Work)
	}
	if a.CritPath != 70 {
		t.Errorf("critpath=%v, want 70", a.CritPath)
	}
}

func TestCreateJoinEdges(t *testing.T) {
	b := newLog("forkjoin").
		thread(1, "main").thread(4, "w")
	b.call(0, 1, trace.CallThrCreate, 0)
	b.log.Events[len(b.log.Events)-2].Target = 4
	b.log.Events[len(b.log.Events)-1].Target = 4
	b.add(0, trace.Event{Thread: 1, Class: trace.Before, Call: trace.CallThrJoin})
	b.add(30, trace.Event{Thread: 4, Class: trace.Before, Call: trace.CallThrExit})
	b.add(30, trace.Event{Thread: 1, Class: trace.After, Call: trace.CallThrJoin, Target: 4})
	b.add(50, trace.Event{Thread: 1, Class: trace.Before, Call: trace.CallThrExit})
	l := b.done(t)
	a := mustAnalyze(t, l)

	create := eventIndex(t, l, 1, trace.After, trace.CallThrCreate, 0)
	exit := eventIndex(t, l, 4, trace.Before, trace.CallThrExit, 0)
	join := eventIndex(t, l, 1, trace.After, trace.CallThrJoin, 0)
	if !a.HappensBefore(create, exit) {
		t.Errorf("create must happen before everything the child does")
	}
	if !a.HappensBefore(exit, join) {
		t.Errorf("child exit must happen before the join return")
	}
	// 30 µs in the child + 20 µs in main after the join, all sequential.
	if a.CritPath != 50 {
		t.Errorf("critpath=%v, want 50", a.CritPath)
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Errorf("nil log must be rejected")
	}
	multi := newLog("multi").done(t)
	multi.Header.CPUs = 4
	if _, err := Analyze(multi); err == nil {
		t.Errorf("multi-CPU recording must be rejected")
	}
	bad := newLog("bad").thread(4, "w").done(t)
	bad.Events = append(bad.Events, trace.Event{Thread: 4, Class: trace.After, Call: trace.CallMutexLock})
	if _, err := Analyze(bad); err == nil {
		t.Errorf("invalid log must be rejected")
	}
}

func TestEmptyLogAnalyzes(t *testing.T) {
	a := mustAnalyze(t, newLog("empty").done(t))
	if a.CritPath != 0 || a.Work != 0 || len(a.Path) != 0 {
		t.Errorf("empty analysis not empty: %+v", a)
	}
	if got := a.Bound(); got != 1 {
		t.Errorf("bound of empty log = %v, want 1", got)
	}
	if s := a.FormatCritPath(5); !strings.Contains(s, "critical path") {
		t.Errorf("format: %q", s)
	}
}

// TestSharedAnalysisConcurrentQueries queries one Analysis from several
// goroutines at once, as the server does with a cached entry: the clocks
// are built once, on the first query, and every goroutine sees the
// relation a private Analysis reports.
func TestSharedAnalysisConcurrentQueries(t *testing.T) {
	l := serializedCS(t)
	want := mustAnalyze(t, l)
	n := len(l.Events)
	hbWant := make([]bool, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			hbWant[i*n+j] = want.HappensBefore(i, j)
		}
	}

	shared := mustAnalyze(t, l)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n*n; k++ {
				i, j := (k+g)%n, k/n
				if got := shared.HappensBefore(i, j); got != hbWant[i*n+j] {
					errs <- fmt.Sprintf("HappensBefore(%d, %d) = %v, want %v", i, j, got, hbWant[i*n+j])
					return
				}
				if got, want := shared.Concurrent(i, j), i != j && !hbWant[i*n+j] && !hbWant[j*n+i]; got != want {
					errs <- fmt.Sprintf("Concurrent(%d, %d) = %v, want %v", i, j, got, want)
					return
				}
			}
			if len(shared.Clocks()) != n {
				errs <- fmt.Sprintf("%d clocks for %d events", len(shared.Clocks()), n)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
