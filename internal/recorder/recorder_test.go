package recorder

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vppb/internal/threadlib"
	"vppb/internal/trace"
	"vppb/internal/vtime"
	"vppb/internal/workloads"
)

// fig2Program reproduces the paper's figure 2 example: main creates thr_a
// and thr_b, joins both; the workers just compute and exit.
func fig2Program(p *threadlib.Process) func(*threadlib.Thread) {
	return func(th *threadlib.Thread) {
		worker := func(w *threadlib.Thread) {
			w.Compute(200 * vtime.Millisecond)
		}
		th.Compute(50 * vtime.Millisecond)
		a := th.Create(worker, threadlib.WithName("thr_a"))
		b := th.Create(worker, threadlib.WithName("thr_b"))
		th.Join(a)
		th.Join(b)
		th.Compute(30 * vtime.Millisecond)
	}
}

func TestRecordFig2(t *testing.T) {
	log, res, err := Record(fig2Program, Options{Program: "example"})
	if err != nil {
		t.Fatal(err)
	}
	if log.Header.Program != "example" || log.Header.CPUs != 1 || log.Header.LWPs != 1 {
		t.Fatalf("header = %+v", log.Header)
	}
	if err := log.Validate(); err != nil {
		t.Fatal(err)
	}
	if log.Duration() != res.Duration {
		t.Fatalf("log duration %v != run duration %v", log.Duration(), res.Duration)
	}
	// Thread table: main, thr_a, thr_b with Solaris IDs.
	if len(log.Threads) != 3 {
		t.Fatalf("threads = %+v", log.Threads)
	}
	if log.Threads[1].ID != 4 || log.Threads[1].Name != "thr_a" {
		t.Fatalf("thr_a = %+v", log.Threads[1])
	}
	// The recorded function name of the workers points at this package.
	if !strings.Contains(log.Threads[1].Func, "recorder") {
		t.Fatalf("func name = %q", log.Threads[1].Func)
	}

	// The paper-style listing contains the canonical lines.
	listing := trace.FormatPaper(log)
	for _, want := range []string{"start_collect", "thr_create thr_a", "thr_create thr_b",
		"thr_join thr_a", "ok thr_join thr_a", "thr_join thr_b", "ok thr_join thr_b", "thr_exit"} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}

func TestRecordedLogDrivesProfile(t *testing.T) {
	log, _, err := Record(fig2Program, Options{Program: "example"})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.BuildProfile(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Threads) != 3 {
		t.Fatalf("profile threads = %d", len(prof.Threads))
	}
	// Workers computed 200ms each; allow for call costs but the burst
	// before thr_exit must be within a millisecond of 200ms.
	for _, id := range []trace.ThreadID{4, 5} {
		tp := prof.Threads[id]
		last := tp.Calls[len(tp.Calls)-1]
		if last.Call != trace.CallThrExit {
			t.Fatalf("thread %d last call = %v", id, last.Call)
		}
		if d := last.CPUBefore - 200*vtime.Millisecond; d < -vtime.Millisecond || d > vtime.Millisecond {
			t.Fatalf("thread %d exit burst = %v", id, last.CPUBefore)
		}
	}
}

func TestRecordRejectsNilSetup(t *testing.T) {
	if _, _, err := Record(nil, Options{}); err == nil {
		t.Fatal("nil setup accepted")
	}
}

func TestRecordPropagatesProgramError(t *testing.T) {
	_, _, err := Record(func(p *threadlib.Process) func(*threadlib.Thread) {
		m := p.NewMutex("m")
		return func(th *threadlib.Thread) {
			m.Unlock(th) // misuse
		}
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "unlocked mutex") {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteReadFileRoundTrip(t *testing.T) {
	log, _, err := Record(fig2Program, Options{Program: "example"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"log.txt", "log.bin"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, log); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != len(log.Events) {
			t.Fatalf("%s: %d events, want %d", name, len(got.Events), len(log.Events))
		}
		if got.Header.Program != "example" {
			t.Fatalf("%s: header %+v", name, got.Header)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Binary file is smaller.
	ti, err := os.Stat(filepath.Join(dir, "log.txt"))
	if err != nil {
		t.Fatal(err)
	}
	bi, err := os.Stat(filepath.Join(dir, "log.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if bi.Size() >= ti.Size() {
		t.Fatalf("binary %d >= text %d", bi.Size(), ti.Size())
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent/x.log"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestIntrusionBelowPaperBound(t *testing.T) {
	// The paper measured at most 2.6% recording overhead. Record a
	// workload with a realistic event rate (hundreds of events/s) and
	// compare against an unmonitored run.
	prog := func(p *threadlib.Process) func(*threadlib.Thread) {
		m := p.NewMutex("m")
		return func(th *threadlib.Thread) {
			a := th.Create(func(w *threadlib.Thread) {
				for i := 0; i < 300; i++ {
					m.Lock(w)
					w.Compute(6 * vtime.Millisecond)
					m.Unlock(w)
				}
			})
			th.Join(a)
		}
	}
	log, monitored, err := Record(prog, Options{Program: "overhead"})
	if err != nil {
		t.Fatal(err)
	}
	// An unmonitored run of the same program (no hook attached).
	costs := threadlib.DefaultCosts()
	p := threadlib.NewProcess(threadlib.Config{CPUs: 1, LWPs: 1, Costs: &costs})
	bare, err := p.Run(prog(p))
	if err != nil {
		t.Fatal(err)
	}
	overhead := monitored.Duration - bare.Duration
	if overhead != log.ComputeStats().ProbeOverhead {
		t.Fatalf("measured overhead %v != accounted %v", overhead, log.ComputeStats().ProbeOverhead)
	}
	frac := float64(overhead) / float64(monitored.Duration)
	if frac <= 0 || frac > 0.03 {
		t.Fatalf("intrusion fraction = %.4f, want (0, 0.03]", frac)
	}
}

func TestFinishExtendsEnd(t *testing.T) {
	r := New("p", 10)
	r.HandleEvent(trace.Event{Time: 100, Call: trace.CallStartCollect, Class: trace.Before})
	log := r.Finish(500)
	if log.Header.End != 500 {
		t.Fatalf("end = %v", log.Header.End)
	}
	log2 := New("p", 10).Finish(0)
	if log2.Header.End != 0 || len(log2.Events) != 0 {
		t.Fatalf("empty finish = %+v", log2.Header)
	}
}

// TestFinishTwice checks that a second Finish returns an equal log, still
// extending the end time, without assembling the events again.
func TestFinishTwice(t *testing.T) {
	r := New("p", 10)
	for i := 0; i < blockEvents+3; i++ {
		r.HandleEvent(trace.Event{Seq: int64(i), Time: vtime.Time(i), Thread: trace.MainThread})
	}
	first := r.Finish(0)
	if len(first.Events) != blockEvents+3 {
		t.Fatalf("%d events, want %d", len(first.Events), blockEvents+3)
	}
	for i, ev := range first.Events {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
	}
	second := r.Finish(1 << 20)
	if len(second.Events) != len(first.Events) || &second.Events[0] != &first.Events[0] {
		t.Fatal("second Finish copied the events again")
	}
	if second.Header.End != 1<<20 {
		t.Fatalf("second Finish end = %v, want %v", second.Header.End, vtime.Time(1<<20))
	}
	second.Header.End = first.Header.End
	if !reflect.DeepEqual(first, second) {
		t.Fatal("second Finish returned a different log")
	}
}

// TestRecorderAllocs bounds the heap bytes a monitored execution
// allocates per recorded event: ocean at 8 threads, recorder, thread
// library and probes included.
func TestRecorderAllocs(t *testing.T) {
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	setup := w.Bind(workloads.Params{Threads: 8, Scale: 0.1})
	if _, _, err := Record(setup, Options{Program: "ocean"}); err != nil {
		t.Fatal(err) // warm the source-location cache
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	log, _, err := Record(setup, Options{Program: "ocean"})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(log.Events))
	t.Logf("%d events, %.0f B/event", len(log.Events), perEvent)
	if perEvent > 400 {
		t.Fatalf("recording allocates %.0f B per event, want <= 400", perEvent)
	}
}
