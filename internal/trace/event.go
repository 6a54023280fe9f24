// Package trace defines the data interchanged between the VPPB stages:
// the recorded information a Recorder emits (artifact (d) in the paper's
// figure 1) and the simulated execution a Simulator emits (artifact (g)).
// It also implements the log encodings, the per-thread sorting of figure 4,
// and the reconstruction of per-thread CPU bursts from a uni-processor log.
package trace

import (
	"fmt"

	"vppb/internal/source"
	"vppb/internal/vtime"
)

// ThreadID identifies a thread. Following Solaris (and the paper's
// example), the main thread is 1 and dynamically created threads are
// numbered from 4.
type ThreadID int32

// MainThread is the identity of the initial thread of a process.
const MainThread ThreadID = 1

// FirstDynamicThread is the identity given to the first thr_create'd
// thread; IDs 2 and 3 are reserved, as in Solaris.
const FirstDynamicThread ThreadID = 4

// ObjectID identifies a synchronization object within one recording.
type ObjectID int32

// ObjectKind classifies synchronization objects.
type ObjectKind uint8

// Object kinds.
const (
	ObjNone ObjectKind = iota
	ObjMutex
	ObjSema
	ObjCond
	ObjRWLock
	// ObjDevice is a FIFO I/O device (the paper's section-6 future work:
	// "our technique does not model I/O ... we are currently working on
	// solving this problem").
	ObjDevice
)

var objectKindNames = [...]string{"none", "mutex", "sema", "cond", "rwlock", "device"}

func (k ObjectKind) String() string {
	if int(k) < len(objectKindNames) {
		return objectKindNames[k]
	}
	return fmt.Sprintf("ObjectKind(%d)", uint8(k))
}

// Call enumerates the thread-library entry points the Recorder probes,
// plus the collection markers.
type Call uint8

// Calls.
const (
	CallNone Call = iota
	CallStartCollect
	CallEndCollect
	CallThrCreate
	CallThrExit
	CallThrJoin
	CallThrYield
	CallThrSetPrio
	CallThrSetConcurrency
	CallMutexLock
	CallMutexTryLock
	CallMutexUnlock
	CallSemaWait
	CallSemaTryWait
	CallSemaPost
	CallCondWait
	CallCondTimedWait
	CallCondSignal
	CallCondBroadcast
	CallRWRdLock
	CallRWWrLock
	CallRWUnlock
	CallThrSuspend
	CallThrContinue
	CallIO
	numCalls
)

var callNames = [...]string{
	CallNone:              "none",
	CallStartCollect:      "start_collect",
	CallEndCollect:        "end_collect",
	CallThrCreate:         "thr_create",
	CallThrExit:           "thr_exit",
	CallThrJoin:           "thr_join",
	CallThrYield:          "thr_yield",
	CallThrSetPrio:        "thr_setprio",
	CallThrSetConcurrency: "thr_setconcurrency",
	CallMutexLock:         "mutex_lock",
	CallMutexTryLock:      "mutex_trylock",
	CallMutexUnlock:       "mutex_unlock",
	CallSemaWait:          "sema_wait",
	CallSemaTryWait:       "sema_trywait",
	CallSemaPost:          "sema_post",
	CallCondWait:          "cond_wait",
	CallCondTimedWait:     "cond_timedwait",
	CallCondSignal:        "cond_signal",
	CallCondBroadcast:     "cond_broadcast",
	CallRWRdLock:          "rw_rdlock",
	CallRWWrLock:          "rw_wrlock",
	CallRWUnlock:          "rw_unlock",
	CallThrSuspend:        "thr_suspend",
	CallThrContinue:       "thr_continue",
	CallIO:                "io",
}

func (c Call) String() string {
	if int(c) < len(callNames) && callNames[c] != "" {
		return callNames[c]
	}
	return fmt.Sprintf("Call(%d)", uint8(c))
}

var callByName = func() map[string]Call {
	m := make(map[string]Call, len(callNames))
	for c, name := range callNames {
		if name != "" {
			m[name] = Call(c)
		}
	}
	return m
}()

// ParseCall maps a call name back to its Call value.
func ParseCall(s string) (Call, error) {
	if c, ok := callByName[s]; ok {
		return c, nil
	}
	return CallNone, fmt.Errorf("trace: unknown call %q", s)
}

// Blocking reports whether the call can suspend the calling thread.
func (c Call) Blocking() bool {
	switch c {
	case CallThrJoin, CallMutexLock, CallSemaWait, CallCondWait,
		CallCondTimedWait, CallRWRdLock, CallRWWrLock, CallCondBroadcast,
		CallIO:
		// CondBroadcast blocks only under the Simulator's barrier fix
		// (paper section 6); it is listed here because a simulation may
		// suspend the caller.
		return true
	}
	return false
}

// Sync reports whether the call operates on a synchronization object (and
// therefore is subject to the bound-thread synchronization cost factor).
func (c Call) Sync() bool {
	switch c {
	case CallMutexLock, CallMutexTryLock, CallMutexUnlock,
		CallSemaWait, CallSemaTryWait, CallSemaPost,
		CallCondWait, CallCondTimedWait, CallCondSignal, CallCondBroadcast,
		CallRWRdLock, CallRWWrLock, CallRWUnlock:
		return true
	}
	return false
}

// hasOutcome reports whether events of call c carry an outcome in
// Event.OK (and an ok= field in the text format).
func hasOutcome(c Call) bool {
	return c == CallMutexTryLock || c == CallSemaTryWait || c == CallCondTimedWait
}

// EventClass tells whether an event marks the entry to a call or its
// completion. The paper's probes record both ("mthr_collect(..., BEFORE,
// ...)" in figure 3; the "ok thr_join" lines in figure 2 are AFTER events).
type EventClass uint8

// Event classes.
const (
	Before EventClass = iota
	After
)

func (c EventClass) String() string {
	if c == Before {
		return "before"
	}
	return "after"
}

// Event is one recorded probe firing: who, what, when, on which object,
// with what outcome, and from which source line.
type Event struct {
	// Fields are ordered by size so that the struct packs into 72 bytes.

	// Seq is the position of the event in the global recorded order.
	Seq int64
	// Time is the (virtual) wall-clock timestamp, 1 microsecond resolution.
	Time vtime.Time
	// Timeout is the requested timeout for cond_timedwait.
	Timeout vtime.Duration
	// Loc is the source position of the call.
	Loc source.Loc
	// Thread is the identity of the thread generating the event.
	Thread ThreadID
	// Object is the synchronization object concerned, if any.
	Object ObjectID
	// Mutex is the companion mutex of a cond_wait / cond_timedwait.
	Mutex ObjectID
	// Target is the other thread concerned: the created thread for
	// thr_create, the joined thread for thr_join (0 means wildcard join
	// on the Before event; the reaped thread on the After event).
	Target ThreadID
	// Prio is the argument of thr_setprio, or the concurrency level for
	// thr_setconcurrency.
	Prio int32
	// Class distinguishes call entry from call completion.
	Class EventClass
	// Call is the probed library routine.
	Call Call
	// OK is the outcome for mutex_trylock / sema_trywait (acquired or
	// not) and cond_timedwait (true = signalled, false = timed out).
	OK bool
}

// ObjectInfo describes one synchronization object seen in a recording.
type ObjectInfo struct {
	ID   ObjectID
	Kind ObjectKind
	Name string
	// InitCount is the initial count of a semaphore; the Simulator needs
	// it to replay sema_wait admission decisions.
	InitCount int32
}

// ThreadInfo describes one thread seen in a recording.
type ThreadInfo struct {
	ID   ThreadID
	Name string
	// Func is the name of the function passed to thr_create (the paper's
	// Visualizer shows it in the event popup).
	Func string
	// Bound marks a thread bound to an LWP; BoundCPU >= 0 additionally
	// binds it to a CPU.
	Bound    bool
	BoundCPU int32
	// Prio is the thread's initial user priority.
	Prio int32
}
