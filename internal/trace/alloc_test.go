package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"vppb/internal/source"
	"vppb/internal/vtime"
)

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBinaryHostileCountsBounded feeds headers whose event counts
// the input cannot back. The decoder may reserve no more than the input
// can hold: an Event per 13 bytes, the smallest event encoding.
func TestDecodeBinaryHostileCountsBounded(t *testing.T) {
	header := AppendBinary(nil, &Log{Header: Header{Program: "p", CPUs: 1, LWPs: 1}})
	header = header[:len(header)-1] // drop the zero event count
	// Each padding event is twelve zero varints and a reference to the
	// program string: 13 bytes that decode without growing anything else.
	pad := bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0}, 1<<20/13)
	// The second count is the largest the header check lets through.
	for _, count := range []uint64{1 << 40, uint64(len(header) + len(pad))} {
		data := append(binary.AppendUvarint(append([]byte(nil), header...), count), pad...)
		got := allocated(func() {
			if _, err := DecodeBinary(data); err == nil {
				t.Errorf("count %d: accepted %d bytes", count, len(data))
			}
		})
		if limit := 8 * uint64(len(data)); got > limit {
			t.Errorf("count %d: allocated %d bytes decoding %d, limit %d", count, got, len(data), limit)
		}
	}
}

// TestDecodeTextBlankLinesBounded checks that lines the decoder skips cost
// nothing: no line buffer, no per-line string.
func TestDecodeTextBlankLinesBounded(t *testing.T) {
	for _, line := range []string{"\n", "  \t\r\n", "# a comment line\n"} {
		data := append([]byte(textMagic+"\n"), bytes.Repeat([]byte(line), 1<<20/len(line))...)
		got := allocated(func() {
			if _, err := DecodeText(data); err != nil {
				t.Error(err)
			}
		})
		if limit := uint64(len(data)) / 16; got > limit {
			t.Errorf("%q lines: allocated %d bytes decoding %d, limit %d", line, got, len(data), limit)
		}
	}
}

// TestDecodedLogOwnsItsStrings overwrites the input after decoding: a log
// whose names or source files aliased the input would change with it.
func TestDecodedLogOwnsItsStrings(t *testing.T) {
	l := richLog()
	l.Threads[0].Name = "main\tthread"
	for name, encode := range map[string]func(*Log) []byte{
		"text":   func(l *Log) []byte { return AppendText(nil, l) },
		"binary": func(l *Log) []byte { return AppendBinary(nil, l) },
	} {
		data := encode(l)
		want, err := Decode(bytes.Clone(data))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded log changed with its input:\n%+v\n%+v", name, got, want)
		}
	}
}

// loopLog is a valid recording of four threads taking a mutex iters times
// each, with a condition wait and broadcast per round.
func loopLog(iters int) *Log {
	l := &Log{
		Header:  Header{Program: "loop", CPUs: 1, LWPs: 1, ProbeCost: 1},
		Objects: []ObjectInfo{{ID: 1, Kind: ObjMutex, Name: "m"}, {ID: 2, Kind: ObjCond, Name: "c"}},
	}
	for id := ThreadID(1); id <= 4; id++ {
		l.Threads = append(l.Threads, ThreadInfo{ID: id, Name: fmt.Sprintf("t%d", id), BoundCPU: -1})
	}
	var at vtime.Time
	add := func(tid ThreadID, class EventClass, call Call, obj ObjectID) {
		at += 10
		l.Events = append(l.Events, Event{
			Seq: int64(len(l.Events)), Time: at, Thread: tid, Class: class, Call: call, Object: obj,
			Loc: source.Loc{File: "loop.go", Line: int(call)},
		})
	}
	for i := 0; i < iters; i++ {
		for tid := ThreadID(1); tid <= 4; tid++ {
			add(tid, Before, CallMutexLock, 1)
			add(tid, After, CallMutexLock, 1)
			add(tid, Before, CallMutexUnlock, 1)
			add(tid, After, CallMutexUnlock, 1)
		}
		add(1, Before, CallCondWait, 2)
		add(2, Before, CallCondBroadcast, 2)
		add(2, After, CallCondBroadcast, 2)
		add(1, After, CallCondWait, 2)
	}
	l.Header.End = at
	return l
}

// TestIngestAllocsIndependentOfEventCount differences the allocation
// counts of two sizes of the same workload, as TestSteadyStateReplayAllocs
// does for replays: decoding and profiling allocate per table, per
// distinct string and per thread, never per event.
func TestIngestAllocsIndependentOfEventCount(t *testing.T) {
	small, big := loopLog(50), loopLog(400)
	steps := map[string]func(l *Log) func(){
		"DecodeText": func(l *Log) func() {
			data := AppendText(nil, l)
			return func() {
				if _, err := DecodeText(data); err != nil {
					t.Fatal(err)
				}
			}
		},
		"DecodeBinary": func(l *Log) func() {
			data := AppendBinary(nil, l)
			return func() {
				if _, err := DecodeBinary(data); err != nil {
					t.Fatal(err)
				}
			}
		},
		"BuildProfile": func(l *Log) func() {
			return func() {
				if _, err := BuildProfile(l); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, step := range steps {
		s := testing.AllocsPerRun(10, step(small))
		b := testing.AllocsPerRun(10, step(big))
		if b > s {
			t.Errorf("%s: %.0f allocations for %d events, %.0f for %d", name, s, len(small.Events), b, len(big.Events))
		}
	}
}
