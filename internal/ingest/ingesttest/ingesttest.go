// Package ingesttest holds the one set of recordings every frontend's
// verdict test runs: ingest.Prepare, vppb-sim, vppb-analyze, vppb-view and
// vppb-serve's /v1/predict must each accept, repair (with the same repair
// summary) or refuse every input exactly as the case says.
package ingesttest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vppb/internal/faultinject"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// Verdict outcomes.
const (
	Accepted = "accepted"
	Repaired = "repaired"
	Refused  = "refused"
)

// Verdict is what a frontend made of an input.
type Verdict struct {
	Outcome string
	// Summary is the RepairReport.Summary() of a repaired input.
	Summary string
}

// Case is one input: the bytes of a file or an upload, and whether the
// frontend runs strict.
type Case struct {
	Name   string
	Raw    []byte
	Strict bool
	Want   Verdict
}

// Cases returns the inputs: a clean text log, its binary encoding and a Go
// execution trace, accepted; the clean text log under strict, accepted;
// each faultinject class that leaves the log invalid, repaired with the
// summary trace.Repair reports on it, and refused under strict; a log no
// repair makes valid, one no profile can be built from, and bytes no
// decoder reads, refused.
func Cases(tb testing.TB) []Case {
	tb.Helper()
	w, err := workloads.Get("example")
	if err != nil {
		tb.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Scale: 0.2, Threads: 4}), recorder.Options{Program: "example"})
	if err != nil {
		tb.Fatal(err)
	}
	_, file, _, _ := runtime.Caller(0)
	goTrace, err := os.ReadFile(filepath.Join(filepath.Dir(file), "../../gotrace/testdata/go-mutexchan.trace"))
	if err != nil {
		tb.Fatal(err)
	}
	text := trace.AppendText(nil, log)
	accepted := Verdict{Outcome: Accepted}
	refused := Verdict{Outcome: Refused}
	out := []Case{
		{Name: "text", Raw: text, Want: accepted},
		{Name: "binary", Raw: trace.AppendBinary(nil, log), Want: accepted},
		{Name: "gotrace", Raw: goTrace, Want: accepted},
		{Name: "text/strict", Raw: text, Strict: true, Want: accepted},
	}
	for _, class := range faultinject.Classes() {
		bad, _, err := faultinject.Inject(log, class, 1)
		if err != nil {
			tb.Fatal(err)
		}
		if bad.Validate() == nil {
			continue
		}
		_, rep, err := trace.Repair(bad)
		if err != nil {
			tb.Fatal(err)
		}
		raw := trace.AppendText(nil, bad)
		out = append(out,
			Case{Name: string(class), Raw: raw, Want: Verdict{Outcome: Repaired, Summary: rep.Summary()}},
			Case{Name: string(class) + "/strict", Raw: raw, Strict: true, Want: refused})
	}
	// Repair moves the header's start back to a first event before it,
	// but a valid log's clock starts at 0.
	early := log.Clone()
	early.Events[0].Time = -1
	multi := log.Clone()
	multi.Header.CPUs = 2
	return append(out,
		Case{Name: "unrecoverable", Raw: trace.AppendText(nil, early), Want: refused},
		Case{Name: "multi-cpu", Raw: trace.AppendText(nil, multi), Want: refused},
		Case{Name: "undecodable", Raw: []byte("not a trace\n"), Want: refused},
	)
}

// CheckCLI runs a CLI's run function on every case, with the case's bytes
// in the file -log names, args after it and -strict for a strict case, and
// checks the verdict it reaches. An error refuses, and the one-line
// auto-repair note on stderr carries the repair summary.
func CheckCLI(t *testing.T, run func(args []string, stdout, stderr io.Writer) error, args ...string) {
	t.Helper()
	dir := t.TempDir()
	for i, c := range Cases(t) {
		path := filepath.Join(dir, fmt.Sprintf("case%d", i))
		if err := os.WriteFile(path, c.Raw, 0o644); err != nil {
			t.Fatal(err)
		}
		argv := append([]string{"-log", path}, args...)
		if c.Strict {
			argv = append(argv, "-strict")
		}
		var stderr strings.Builder
		err := run(argv, io.Discard, &stderr)
		got := Verdict{Outcome: Accepted}
		if err != nil {
			got = Verdict{Outcome: Refused}
		} else if _, note, ok := strings.Cut(stderr.String(), "corrupt log repaired: "); ok {
			summary, _, _ := strings.Cut(note, " (-repair for details")
			got = Verdict{Outcome: Repaired, Summary: summary}
		}
		if got != c.Want {
			t.Errorf("%s: verdict %+v (err %v), want %+v", c.Name, got, err, c.Want)
		}
	}
}
