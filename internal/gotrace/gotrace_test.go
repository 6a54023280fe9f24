package gotrace

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vppb/internal/core"
	"vppb/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

const fixture = "testdata/go-mutexchan.trace"

func readFixture(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSniff(t *testing.T) {
	if !Sniff(readFixture(t)) {
		t.Error("Sniff rejected the committed fixture")
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("# vppb-log v1\n"),
		[]byte("VPPBLOG1"),
		[]byte("go 1.23 trace"), // missing the trailing NULs
		[]byte("got 1.23 trace\x00\x00\x00"),
	} {
		if Sniff(bad) {
			t.Errorf("Sniff accepted %q", bad)
		}
	}
	if !Sniff([]byte("go 1.22 trace\x00\x00\x00")) {
		t.Error("Sniff rejected a go1.22 header")
	}
}

func TestParseFixture(t *testing.T) {
	gens, err := parse(readFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("generations = %d, want 1", len(gens))
	}
	g := gens[0]
	if g.freq == 0 {
		t.Error("no frequency recorded")
	}
	if len(g.events) == 0 || len(g.strings) == 0 || len(g.stacks) == 0 {
		t.Fatalf("events=%d strings=%d stacks=%d: all must be non-empty",
			len(g.events), len(g.strings), len(g.stacks))
	}
	for i := 1; i < len(g.events); i++ {
		if g.events[i].tick < g.events[i-1].tick {
			t.Fatalf("event %d out of time order", i)
		}
	}
}

// TestConvertFixture pins the structure the committed capture converts to:
// the demo program's goroutines and its mutex, channel, select, sleep and
// syscall sites, all attributed to stable source positions.
func TestConvertFixture(t *testing.T) {
	l, err := Convert(readFixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Header.Program, "gotrace"; got != want {
		t.Errorf("program = %q, want %q", got, want)
	}
	if l.Header.CPUs != 1 || l.Header.LWPs != 1 {
		t.Errorf("header machine = %d CPUs/%d LWPs, want 1/1", l.Header.CPUs, l.Header.LWPs)
	}
	if len(l.Threads) != 6 {
		t.Errorf("threads = %d, want 6 (main + trace writer + 2 workers + producer + consumer)", len(l.Threads))
	}
	if th := l.Thread(trace.MainThread); th == nil || th.Name != "main" {
		t.Errorf("main thread missing or misnamed: %+v", th)
	}
	wantObjects := map[string]trace.ObjectKind{
		"mutex@demo/main.go:56":     trace.ObjMutex,
		"chan-send@demo/main.go:69": trace.ObjSema,
		"select@demo/main.go:77":    trace.ObjSema,
		"sleep@demo/main.go:86":     trace.ObjDevice,
	}
	kinds := make(map[string]trace.ObjectKind)
	for _, o := range l.Objects {
		kinds[o.Name] = o.Kind
	}
	for name, kind := range wantObjects {
		if got, ok := kinds[name]; !ok || got != kind {
			t.Errorf("object %q: got kind %v (present=%v), want %v", name, got, ok, kind)
		}
	}
	if err := l.Validate(); err != nil {
		t.Errorf("converted log invalid: %v", err)
	}
}

// TestConvertDeterministic is the round-trip acceptance test: the
// committed capture converts to a byte-stable log, and simulating it at 1,
// 2 and 4 CPUs yields byte-stable predicted timelines. Run with -update to
// regenerate the goldens after an intentional conversion change.
func TestConvertDeterministic(t *testing.T) {
	data := readFixture(t)
	l, err := Convert(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two independent conversions must agree byte for byte.
	l2, err := Convert(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc, enc2 := trace.AppendText(nil, l), trace.AppendText(nil, l2)
	if !bytes.Equal(enc, enc2) {
		t.Fatal("two conversions of the same trace differ")
	}
	compareGolden(t, "testdata/go-mutexchan.golden.log", enc)

	var predict bytes.Buffer
	for _, cpus := range []int{1, 2, 4} {
		res, err := core.Simulate(l, core.Machine{CPUs: cpus})
		if err != nil {
			t.Fatalf("cpus=%d: %v", cpus, err)
		}
		tlBytes, err := trace.MarshalTimeline(res.Timeline)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&predict, "cpus=%d predicted=%s events=%d timeline=%x\n",
			cpus, res.Duration, res.Events, sha256.Sum256(tlBytes))
	}
	compareGolden(t, "testdata/go-mutexchan.predict.golden", predict.Bytes())
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/gotrace -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		diffPath := filepath.Join(t.TempDir(), filepath.Base(path))
		os.WriteFile(diffPath, got, 0o644)
		t.Errorf("%s: output differs from golden (got %d bytes, want %d; new output in %s; -update to accept)",
			path, len(got), len(want), diffPath)
	}
}

// TestConvertProfile checks the converted log feeds the Simulator's
// profile builder: every thread contributes CPU time and the mutex workers
// contend on the same object.
func TestConvertProfile(t *testing.T) {
	l, err := Convert(readFixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.BuildProfile(l)
	if err != nil {
		t.Fatal(err)
	}
	if prof.TotalCPU() <= 0 {
		t.Error("profile has no CPU time")
	}
	// The two workers block on the mutex object in the recording, so the
	// converted profile must carry sema_wait records against it.
	var waits int
	for _, id := range prof.ThreadIDs() {
		for _, c := range prof.Threads[id].Calls {
			if c.Call == trace.CallSemaWait && l.ObjectName(prof.Site(&c).Object) == "mutex@demo/main.go:56" {
				waits++
			}
		}
	}
	if waits == 0 {
		t.Error("no sema_wait records against the demo mutex")
	}
}

func TestConvertErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"not a trace", []byte("hello world")},
		{"vppb text log", []byte("# vppb-log v1\n")},
		{"header only", []byte("go 1.23 trace\x00\x00\x00")},
		{"old version", []byte("go 1.19 trace\x00\x00\x00junk")},
		{"bad batch type", append([]byte("go 1.23 trace\x00\x00\x00"), 0x7f)},
		{"truncated batch", append([]byte("go 1.23 trace\x00\x00\x00"), 1, 1, 1, 1, 200)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Convert(tc.data, Options{}); err == nil {
				t.Error("Convert accepted malformed input")
			}
		})
	}
}

// TestConvertProgramOption checks the recording name override.
func TestConvertProgramOption(t *testing.T) {
	l, err := Convert(readFixture(t), Options{Program: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if l.Header.Program != "demo" {
		t.Errorf("program = %q, want %q", l.Header.Program, "demo")
	}
}
