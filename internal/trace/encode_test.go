package trace

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"vppb/internal/source"
	"vppb/internal/vtime"
)

func richLog() *Log {
	l := exampleLog()
	l.Header.ProbeCost = 20
	l.Objects = []ObjectInfo{
		{ID: 1, Kind: ObjMutex, Name: "buffer lock"},
		{ID: 2, Kind: ObjSema, Name: "items"},
		{ID: 3, Kind: ObjCond, Name: ""},
	}
	l.Events = append(l.Events, Event{
		Seq: int64(len(l.Events)), Time: 800_000, Thread: 4, Class: Before,
		Call: CallMutexTryLock, Object: 1, OK: true,
		Loc: source.Loc{File: "dir/file with space.go", Line: 42},
	})
	l.Events = append(l.Events, Event{
		Seq: int64(len(l.Events)), Time: 800_000, Thread: 4, Class: After,
		Call: CallMutexTryLock, Object: 1, OK: true,
	})
	l.Events = append(l.Events, Event{
		Seq: int64(len(l.Events)), Time: 800_000, Thread: 5, Class: Before,
		Call: CallCondTimedWait, Object: 3, Timeout: 5000, OK: false,
	})
	l.Events = append(l.Events, Event{
		Seq: int64(len(l.Events)), Time: 800_000, Thread: 5, Class: After,
		Call: CallCondTimedWait, Object: 3, OK: false,
	})
	l.Events = append(l.Events, Event{
		Seq: int64(len(l.Events)), Time: 800_000, Thread: 5, Class: Before,
		Call: CallThrSetPrio, Prio: 42,
	})
	l.Events = append(l.Events, Event{
		Seq: int64(len(l.Events)), Time: 800_000, Thread: 5, Class: After,
		Call: CallThrSetPrio, Prio: 42,
	})
	return l
}

func logsEqual(t *testing.T, a, b *Log) {
	t.Helper()
	if !reflect.DeepEqual(a.Header, b.Header) {
		t.Fatalf("header mismatch:\n%+v\n%+v", a.Header, b.Header)
	}
	if !reflect.DeepEqual(a.Threads, b.Threads) {
		t.Fatalf("threads mismatch:\n%+v\n%+v", a.Threads, b.Threads)
	}
	if !reflect.DeepEqual(a.Objects, b.Objects) {
		t.Fatalf("objects mismatch:\n%+v\n%+v", a.Objects, b.Objects)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event count %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d mismatch:\n%+v\n%+v", i, a.Events[i], b.Events[i])
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	l := richLog()
	var buf bytes.Buffer
	if err := WriteText(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, l, got)
}

func TestBinaryRoundTrip(t *testing.T) {
	l := richLog()
	data := AppendBinary(nil, l)
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, l, got)
}

func TestReadTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a log\n",
		"# vppb-log v1\nevent bogus\n",
		"# vppb-log v1\nunknownrecord 1\n",
		"# vppb-log v1\nevent 0 0 T1 before not_a_call\n",
		"# vppb-log v1\nevent 0 0 X1 before thr_exit\n",
		"# vppb-log v1\nthread abc\n",
		"# vppb-log v1\nobject 1 kind=teapot\n",
		"# vppb-log v1\ncpus\n",
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("ReadText accepted %q", c)
		}
	}
}

// TestDecodeTextLineLimit pins the 64 MiB line limit at its edge: a line
// one byte shorter than the limit is read, a line of the limit fails with
// the error the scanner-based reader gave.
func TestDecodeTextLineLimit(t *testing.T) {
	// The magic line, then a comment line of maxLineBytes-1 bytes.
	data := make([]byte, len(textMagic)+1+maxLineBytes)
	copy(data, textMagic+"\n#")
	for i := len(textMagic) + 2; i < len(data); i++ {
		data[i] = 'x'
	}
	data[len(data)-1] = '\n'
	if _, err := DecodeText(data); err != nil {
		t.Errorf("%d-byte line: %v", maxLineBytes-1, err)
	}
	data[len(data)-1] = 'x'
	_, err := DecodeText(data)
	if want := "trace: " + bufio.ErrTooLong.Error(); err == nil || err.Error() != want {
		t.Errorf("%d-byte line: err = %v, want %s", maxLineBytes, err, want)
	}
}

func TestDecodeBinaryRejectsGarbage(t *testing.T) {
	if _, err := DecodeBinary(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := DecodeBinary([]byte("WRONGMAG")); err == nil {
		t.Fatal("bad magic accepted")
	}
	good := AppendBinary(nil, richLog())
	for _, cut := range []int{9, 12, len(good) / 2, len(good) - 1} {
		if cut >= len(good) {
			continue
		}
		if _, err := DecodeBinary(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestQuoteRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return unquote(quote(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuoteHardCases pins the asymmetries the original implementation had:
// backslashes, the "-" empty marker, tabs, newlines, carriage returns and
// non-ASCII whitespace all must survive a round trip, and the quoted form
// must never contain characters that strings.Fields would split on.
func TestQuoteHardCases(t *testing.T) {
	cases := []string{
		"", "-", `\`, `\\`, `\s`, ` `, "a b", " ", "  ",
		"tab\there", "new\nline", "cr\rhere", "vt\vff\f",
		"nbsp sep par ideo　",
		"héllo wörld", "日本語 テスト", "mixed \t\n \\- end",
	}
	for _, s := range cases {
		q := quote(s)
		if got := unquote(q); got != s {
			t.Errorf("unquote(quote(%q)) = %q via %q", s, got, q)
		}
		if len(strings.Fields(q)) > 1 || (q != "" && strings.TrimSpace(q) != q) {
			t.Errorf("quote(%q) = %q still splits under strings.Fields", s, q)
		}
	}
}

// TestQuoteMatchesOracle checks quote, whose plain-string check reads
// ASCII bytes directly, against the rune-by-rune oracleQuote.
func TestQuoteMatchesOracle(t *testing.T) {
	f := func(s string) bool { return quote(s) == oracleQuote(s) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"\t", "\n", "\v", "\f", "\r", " ", `\`, "\u0085", "\u00a0", "\u2028", "\u3000", "é", "\xff", "\xc2"} {
		for off := 0; off <= 8; off++ {
			s := "/src/app/"[:off] + c + "/main.go"
			if got, want := quote(s), oracleQuote(s); got != want {
				t.Errorf("quote(%q) = %q, oracle %q", s, got, want)
			}
		}
	}
}

// TestDecLen checks decLen against strconv at every change of length.
func TestDecLen(t *testing.T) {
	vs := []int64{0, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(1); p <= math.MaxInt64/10; p *= 10 {
		vs = append(vs, p-1, p, 10*p-1)
	}
	for _, v := range vs {
		for _, v := range []int64{v, -v} {
			if got, want := decLen(v), len(strconv.FormatInt(v, 10)); got != want {
				t.Errorf("decLen(%d) = %d, want %d", v, got, want)
			}
		}
	}
}

// TestQuotedNamesSurviveTextFormat checks the property end to end: a log
// whose names contain every awkward character round-trips through the
// line-oriented text format.
func TestQuotedNamesSurviveTextFormat(t *testing.T) {
	l := richLog()
	l.Header.Program = "prog with\nnewline\tand nbsp"
	l.Threads[0].Name = "main thread\\with backslash"
	l.Threads[1].Name = "-"
	l.Objects[0].Name = "lock  line sep"
	var buf bytes.Buffer
	if err := WriteText(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, l, got)
}

// randomLog produces a structurally plausible log for round-trip fuzzing.
func randomLog(r *rand.Rand) *Log {
	l := &Log{Header: Header{
		Program:   "fuzz",
		CPUs:      1,
		LWPs:      1,
		ProbeCost: vtime.Duration(r.Intn(100)),
	}}
	nThreads := 1 + r.Intn(5)
	for i := 0; i < nThreads; i++ {
		l.Threads = append(l.Threads, ThreadInfo{
			ID: ThreadID(i + 1), Name: "t", BoundCPU: int32(r.Intn(3)) - 1,
			Bound: r.Intn(2) == 0, Prio: int32(r.Intn(60)),
		})
	}
	nObjects := r.Intn(4)
	for i := 0; i < nObjects; i++ {
		l.Objects = append(l.Objects, ObjectInfo{
			ID: ObjectID(i + 1), Kind: ObjectKind(1 + r.Intn(4)), Name: "o",
		})
	}
	at := vtime.Time(0)
	n := r.Intn(200)
	for i := 0; i < n; i++ {
		at = at.Add(vtime.Duration(r.Intn(1000)))
		ev := Event{
			Seq:    int64(i),
			Time:   at,
			Thread: ThreadID(1 + r.Intn(nThreads)),
			Class:  EventClass(r.Intn(2)),
			Call:   Call(1 + r.Intn(int(numCalls)-1)),
		}
		// OK is persisted only for calls with a recorded outcome.
		if ev.Call == CallMutexTryLock || ev.Call == CallSemaTryWait || ev.Call == CallCondTimedWait {
			ev.OK = r.Intn(2) == 0
		}
		if nObjects > 0 && r.Intn(2) == 0 {
			ev.Object = ObjectID(1 + r.Intn(nObjects))
		}
		if r.Intn(4) == 0 {
			ev.Target = ThreadID(1 + r.Intn(nThreads))
		}
		if r.Intn(8) == 0 {
			ev.Timeout = vtime.Duration(r.Intn(100000))
		}
		if r.Intn(8) == 0 {
			ev.Loc = source.Loc{File: "f.go", Line: 1 + r.Intn(500)}
		}
		l.Events = append(l.Events, ev)
	}
	l.Header.End = at
	return l
}

func TestRoundTripRandomLogs(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for i := 0; i < 50; i++ {
		l := randomLog(r)
		var buf bytes.Buffer
		if err := WriteText(&buf, l); err != nil {
			t.Fatal(err)
		}
		gotText, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("iteration %d text: %v", i, err)
		}
		logsEqual(t, l, gotText)
		gotBin, err := DecodeBinary(AppendBinary(nil, l))
		if err != nil {
			t.Fatalf("iteration %d binary: %v", i, err)
		}
		logsEqual(t, l, gotBin)
	}
}

func TestBinarySmallerThanTextOnBigLogs(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var l *Log
	for l = randomLog(r); len(l.Events) < 50; l = randomLog(r) {
	}
	text := AppendText(nil, l)
	bin := AppendBinary(nil, l)
	if len(bin) >= len(text) {
		t.Fatalf("binary %d >= text %d", len(bin), len(text))
	}
}

func TestStringInterning(t *testing.T) {
	// The same file name repeated many times must be stored once.
	l := exampleLog()
	for i := range l.Events {
		l.Events[i].Loc = source.Loc{File: "a/very/long/path/to/the/source/file.go", Line: i + 1}
	}
	bin := AppendBinary(nil, l)
	if n := bytes.Count(bin, []byte("a/very/long/path")); n != 1 {
		t.Fatalf("file path stored %d times, want 1", n)
	}
	got, err := DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, l, got)
}
