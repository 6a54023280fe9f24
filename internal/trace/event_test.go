package trace

import (
	"strings"
	"testing"
	"unsafe"
)

// TestEventLayout pins the packed sizes: a recording holds one Event per
// probe and a timeline one PlacedEvent per replayed event, so a padding
// byte costs a byte per event in every live trace.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 72 {
		t.Errorf("sizeof(Event) = %d, want 72", got)
	}
	if got := unsafe.Sizeof(PlacedEvent{}); got != 96 {
		t.Errorf("sizeof(PlacedEvent) = %d, want 96", got)
	}
}

// TestCallRecordLayout pins the replay record's size: a profile holds one
// CallRecord per recorded call, which every replay reads and a server
// keeps for each cached trace.
func TestCallRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(CallRecord{}); got > 56 {
		t.Errorf("sizeof(CallRecord) = %d, want at most 56", got)
	}
}

func TestCallStringParseRoundTrip(t *testing.T) {
	for c := CallStartCollect; c < numCalls; c++ {
		name := c.String()
		if strings.HasPrefix(name, "Call(") {
			t.Fatalf("call %d has no name", uint8(c))
		}
		back, err := ParseCall(name)
		if err != nil {
			t.Fatalf("ParseCall(%q): %v", name, err)
		}
		if back != c {
			t.Fatalf("round trip %v -> %q -> %v", c, name, back)
		}
	}
}

func TestParseCallUnknown(t *testing.T) {
	if _, err := ParseCall("bogus_call"); err == nil {
		t.Fatal("expected error for unknown call")
	}
	if _, err := ParseCall(""); err == nil {
		t.Fatal("expected error for empty call")
	}
}

func TestBlockingClassification(t *testing.T) {
	blocking := []Call{CallThrJoin, CallMutexLock, CallSemaWait, CallCondWait, CallCondTimedWait, CallRWRdLock, CallRWWrLock, CallCondBroadcast}
	for _, c := range blocking {
		if !c.Blocking() {
			t.Errorf("%v should be blocking", c)
		}
	}
	nonBlocking := []Call{CallThrCreate, CallThrExit, CallMutexUnlock, CallMutexTryLock, CallSemaPost, CallSemaTryWait, CallCondSignal, CallRWUnlock, CallThrYield, CallThrSetPrio}
	for _, c := range nonBlocking {
		if c.Blocking() {
			t.Errorf("%v should not be blocking", c)
		}
	}
}

func TestSyncClassification(t *testing.T) {
	sync := []Call{CallMutexLock, CallMutexTryLock, CallMutexUnlock, CallSemaWait, CallSemaPost, CallCondWait, CallCondSignal, CallCondBroadcast, CallRWRdLock, CallRWUnlock}
	for _, c := range sync {
		if !c.Sync() {
			t.Errorf("%v should be a sync call", c)
		}
	}
	nonSync := []Call{CallThrCreate, CallThrExit, CallThrJoin, CallThrYield, CallStartCollect}
	for _, c := range nonSync {
		if c.Sync() {
			t.Errorf("%v should not be a sync call", c)
		}
	}
}

func TestObjectKindString(t *testing.T) {
	cases := map[ObjectKind]string{
		ObjMutex: "mutex", ObjSema: "sema", ObjCond: "cond", ObjRWLock: "rwlock", ObjNone: "none",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestEventClassString(t *testing.T) {
	if Before.String() != "before" || After.String() != "after" {
		t.Fatal("EventClass strings wrong")
	}
}

func TestThreadIDConstants(t *testing.T) {
	// The paper's example: "main = 1, thr_a = 4, and thr_b = 5".
	if MainThread != 1 {
		t.Fatal("main thread must be 1")
	}
	if FirstDynamicThread != 4 {
		t.Fatal("first created thread must be 4")
	}
}
