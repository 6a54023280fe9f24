package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vppb/internal/source"
	"vppb/internal/vtime"
)

// Fuzz targets for the decoders that consume untrusted bytes: the text and
// binary log decoders and the timeline JSON envelope. The contract under
// fuzzing is simple — return an error on bad input, never panic — plus a
// round-trip obligation: anything the decoder accepts must re-encode and
// re-decode to the same log. The text decoder must also agree with the
// scanner-based reader it replaced, log for log and error for error, and
// the text encoder with the per-field-quoting encoder, byte for byte.

func fuzzSeedLogs() []*Log {
	truncated := repairFixture()
	truncated.Events = truncated.Events[:4]
	return []*Log{
		exampleLog(),
		richLog(),
		repairFixture(),
		truncated,
		{Header: Header{Program: "empty", CPUs: 1, LWPs: 1}},
		{
			Header:  Header{Program: "weird name\twith\nspaces", CPUs: 1, LWPs: 1, End: 10},
			Threads: []ThreadInfo{{ID: 1, Name: "-", Func: `\`, BoundCPU: -1}},
			Events:  []Event{{Seq: 0, Time: 5, Thread: 1, Class: Before, Call: CallThrExit}},
		},
		locRunsLog(),
	}
}

// locRunsLog's source file changes mid-run and takes each form that quote
// escapes: empty, "-", a space, a backslash and NBSP.
func locRunsLog() *Log {
	l := &Log{
		Header:  Header{Program: "locs", CPUs: 1, LWPs: 1, End: 100},
		Threads: []ThreadInfo{{ID: 1, Name: "main", BoundCPU: -1}},
	}
	for i, file := range []string{"a.go", "a.go", "b.go", "a.go", "", "", "-", "-", "a b.go", `a\b.go`, "a\u00a0b.go", "a\u00a0b.go", "a.go"} {
		l.Events = append(l.Events, Event{
			Seq: int64(2 * i), Time: vtime.Time(i), Thread: 1, Class: Before, Call: CallThrYield,
			Loc: source.Loc{File: file, Line: i},
		}, Event{
			Seq: int64(2*i + 1), Time: vtime.Time(i), Thread: 1, Class: After, Call: CallThrYield,
			Loc: source.Loc{File: file, Line: 999999999 + i},
		})
	}
	return l
}

// fuzzTextSeeds is FuzzReadText's seed corpus: the seed logs encoded, and
// hand-damaged lines that steer the fuzzer at the per-record parsers.
func fuzzTextSeeds() [][]byte {
	var seeds [][]byte
	for _, l := range fuzzSeedLogs() {
		seeds = append(seeds, AppendText(nil, l))
	}
	seeds = append(seeds,
		[]byte("# vppb-log v1\nevent 0 0 T1 before thr_exit\n"),
		[]byte("# vppb-log v1\nthread 1 name=\\s prio=-9999999999999999999\n"),
		[]byte("# vppb-log v1\nobject 9 kind=mutex name=\\u0020\n"),
		[]byte("# vppb-log v1\ncpus 99999999999999999999\n"),
		[]byte("# vppb-log v1\r\n\n  thread 1 name=a\u00a0b func=\xff\u2028\r\r\nevent 0 0 T1 before thr_exit loc=x:y:7\n"),
		// 9 and 10 digits around the inline integer parser, and int32
		// overflow at 10 digits.
		[]byte("# vppb-log v1\nthread 999999999 name=a prio=-999999999 boundcpu=+123456789\nthread 2147483647 name=b prio=-2147483648\n"+
			"event 123456789 1234567890 T999999999 before thr_exit loc=a:-1234567890\n"),
		[]byte("# vppb-log v1\nthread 2147483648 name=a\n"),
		[]byte("# vppb-log v1\nobject 1 kind=mutex count=-2147483649\n"),
		[]byte("# vppb-log v1\nevent 0 0 T1 before mutex_lock obj=1234567890\n"),
		// A sign alone.
		[]byte("# vppb-log v1\ncpus +\n"),
		[]byte("# vppb-log v1\nevent - 0 T1 before thr_exit\n"),
		[]byte("# vppb-log v1\nevent 0 0 T+ before thr_exit\n"),
		[]byte("# vppb-log v1\nevent 0 0 T1 before thr_exit loc=a:+\n"),
		[]byte("# vppb-log v1\nevent 0 0 T1 before thr_exit loc=a:-\n"),
		// Repeated spaces, and a loc file that changes or is empty.
		[]byte("# vppb-log v1\nevent  0   0 T1  before    thr_yield  loc=a:1\n"+
			"event 1 1 T1 after thr_yield loc=:2\nevent 2 2 T1 before thr_yield loc=a:3\nevent 3 3 T1 after thr_yield loc=:4\n"),
	)
	// A control byte or a byte that is not ASCII at each offset 0-8 of a
	// line, counted from either end: the first word of a line is tested
	// whole, its last bytes one by one.
	line := "event 0 0 T1 before thr_exit loc=a:1"
	for _, c := range []string{"\t", "\v", "\r", "\u00a0", "\xff"} {
		for off := 0; off <= 8; off++ {
			end := len(line) - off
			seeds = append(seeds,
				[]byte("# vppb-log v1\n"+line[:off]+c+line[off:]+"\n"),
				[]byte("# vppb-log v1\n"+line[:end]+c+line[end:]+"\n"))
		}
	}
	return seeds
}

func FuzzReadText(f *testing.F) {
	for _, seed := range fuzzTextSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeText(data)
		ol, oerr := oracleReadText(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(oerr) {
			t.Fatalf("error %v; oracle %v", err, oerr)
		}
		if !reflect.DeepEqual(l, ol) {
			t.Fatalf("log differs from the oracle's:\n%+v\n%+v", l, ol)
		}
		if err != nil {
			return
		}
		// Accepted input must survive a re-encode round trip, and the
		// encoder must size its output exactly and agree with the oracle.
		enc := AppendText(nil, l)
		if cap(enc) != len(enc) {
			t.Fatalf("AppendText: cap %d, len %d", cap(enc), len(enc))
		}
		if oenc := oracleAppendText(nil, l); !bytes.Equal(enc, oenc) {
			t.Fatalf("AppendText differs from the oracle's:\n%q\n%q", enc, oenc)
		}
		if err := diffRepair(l); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of accepted log failed: %v", err)
		}
		if len(back.Events) != len(l.Events) || len(back.Threads) != len(l.Threads) {
			t.Fatalf("round trip changed shape: %d/%d events, %d/%d threads",
				len(l.Events), len(back.Events), len(l.Threads), len(back.Threads))
		}
	})
}

func FuzzDecodeBinary(f *testing.F) {
	for _, l := range fuzzSeedLogs() {
		f.Add(AppendBinary(nil, l))
	}
	f.Add([]byte("VPPB"))
	f.Add(binary.AppendUvarint([]byte("VPPBLOG1\x00\x00\x01\x01\x00\x00\x00\x00\x00"), 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeBinary(data)
		if err != nil {
			return
		}
		back, err := DecodeBinary(AppendBinary(nil, l))
		if err != nil {
			t.Fatalf("re-decode of accepted log failed: %v", err)
		}
		if !reflect.DeepEqual(back, l) {
			t.Fatalf("round trip changed the log:\n%+v\n%+v", l, back)
		}
	})
}

func FuzzUnmarshalTimeline(f *testing.F) {
	tb := NewTimelineBuilder()
	h1 := tb.StartThread(ThreadInfo{ID: 1, Name: "main", BoundCPU: -1}, 0)
	tb.AddSpan(h1, Span{Start: 0, End: 100, State: StateRunning, CPU: 0, LWP: 0})
	tb.EndThread(h1, 100)
	data, err := MarshalTimeline(tb.Build("fuzz", 1, 1, 100))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":"vppb-timeline","version":1}`))
	f.Add([]byte(strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)))
	f.Add([]byte(strings.Replace(string(data), `"end": 100`, `"end": -100`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := UnmarshalTimeline(data)
		if err != nil {
			return
		}
		// UnmarshalTimeline validates; an accepted timeline must
		// re-marshal and re-load.
		out, err := MarshalTimeline(tl)
		if err != nil {
			t.Fatalf("re-marshal of accepted timeline failed: %v", err)
		}
		if _, err := UnmarshalTimeline(out); err != nil {
			t.Fatalf("re-decode of accepted timeline failed: %v", err)
		}
	})
}
