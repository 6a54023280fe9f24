package recorder

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vppb/internal/trace"
	"vppb/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files")

const recordedGolden = "testdata/recorded.sha256"

// goldenRecordings are the programs whose recorded text logs are pinned by
// TestRecordedLogsGolden: the paper's example, two SPLASH-2 kernels at 8
// threads, a fixed-thread condition-variable program and the I/O-bound
// server.
var goldenRecordings = []struct {
	name    string
	threads int
}{
	{"example", 1},
	{"fft", 8},
	{"ocean", 8},
	{"prodcons", 1},
	{"dbserver", 8},
}

// TestRecordedLogsGolden pins every byte a recording produces, source
// locations included: one SHA-256 of the text encoding per program. Paths
// inside the repository are made repository-relative; frames inside the Go
// toolchain (the goroutine entry in the runtime's assembly) become
// "GOROOT", since their file and line depend on the toolchain version and
// the architecture. Run with -update to rewrite the golden.
func TestRecordedLogsGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	goroot := runtime.GOROOT()
	var got strings.Builder
	for _, g := range goldenRecordings {
		w, err := workloads.Get(g.name)
		if err != nil {
			t.Fatal(err)
		}
		log, _, err := Record(w.Bind(workloads.Params{Threads: g.threads, Scale: 0.1}), Options{Program: g.name})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for i := range log.Events {
			loc := &log.Events[i].Loc
			switch {
			case strings.HasPrefix(loc.File, root+"/"):
				loc.File = loc.File[len(root)+1:]
			case goroot != "" && strings.HasPrefix(loc.File, goroot+"/"):
				loc.File, loc.Line = "GOROOT", 0
			case loc.File != "":
				t.Fatalf("%s: event %d: location %s outside the repository and GOROOT", g.name, i, loc.File)
			}
		}
		fmt.Fprintf(&got, "%s %x\n", g.name, sha256.Sum256(trace.AppendText(nil, log)))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(recordedGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(recordedGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(recordedGolden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/recorder -run RecordedLogsGolden -update` to create it)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("recorded logs differ from %s:\ngot:\n%swant:\n%s", recordedGolden, got.String(), want)
	}
}
