package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vppb"
	"vppb/internal/cli"
	"vppb/internal/ingest/ingesttest"
)

func fixtureLog(t *testing.T, workload string, prm vppb.WorkloadParams) string {
	t.Helper()
	log, err := vppb.RecordWorkload(workload, prm)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), workload+".bin")
	if err := vppb.WriteLog(path, log); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCmd(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestBoundNextToPredictions(t *testing.T) {
	path := fixtureLog(t, "prodcons", vppb.WorkloadParams{Scale: 0.2})
	out, _, err := runCmd(t, "-log", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"speed-up upper bound", "(serialized on buffer)",
		"predicted speed-up", "upper bound", "program            prodcons",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBoundOnly(t *testing.T) {
	path := fixtureLog(t, "example", vppb.WorkloadParams{})
	out, _, err := runCmd(t, "-log", path, "-bound")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "speed-up upper bound") || strings.Contains(out, "predicted") {
		t.Fatalf("-bound output wrong:\n%s", out)
	}
}

func TestCritPathNamesBufferSite(t *testing.T) {
	path := fixtureLog(t, "prodcons", vppb.WorkloadParams{Scale: 0.2})
	out, _, err := runCmd(t, "-log", path, "-critpath", "-top", "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"top critical-path sites:", "serialization scores", "buffer"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLockOrderReport(t *testing.T) {
	path := fixtureLog(t, "lockorder", vppb.WorkloadParams{})
	out, _, err := runCmd(t, "-log", path, "-lockorder")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lock-order graph", "POTENTIAL DEADLOCK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONReport(t *testing.T) {
	path := fixtureLog(t, "lockorder", vppb.WorkloadParams{})
	out, _, err := runCmd(t, "-log", path, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Program  string  `json:"program"`
		Bound    float64 `json:"speedup_bound"`
		Deadlock bool    `json:"potential_deadlock"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if rep.Program != "lockorder" || rep.Bound < 1 || !rep.Deadlock {
		t.Fatalf("report = %+v", rep)
	}
}

// TestJSONDeterministic: two runs over the same log produce byte-identical
// -json output — no map-iteration order leaks into the report.
func TestJSONDeterministic(t *testing.T) {
	path := fixtureLog(t, "prodcons", vppb.WorkloadParams{Scale: 0.2, Threads: 4})
	first, _, err := runCmd(t, "-log", path, "-json")
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := runCmd(t, "-log", path, "-json")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("two identical -json runs differ:\n--- first\n%s--- second\n%s", first, second)
	}
}

func TestFlowAndSVGOverlay(t *testing.T) {
	path := fixtureLog(t, "prodcons", vppb.WorkloadParams{Scale: 0.2})
	svgPath := filepath.Join(t.TempDir(), "out.svg")
	out, _, err := runCmd(t, "-log", path, "-flow", "-width", "60", "-cpus", "2,4", "-svg", svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#=critical path") || !strings.Contains(out, "predicted execution on 4 CPUs") {
		t.Fatalf("flow output wrong:\n%s", out)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "critical path highlighted") {
		t.Fatal("SVG lacks the overlay legend")
	}
}

func TestBadFlags(t *testing.T) {
	if _, _, err := runCmd(t); err == nil {
		t.Fatal("missing -log accepted")
	}
	if _, _, err := runCmd(t, "-log", "/nonexistent"); err == nil {
		t.Fatal("unreadable log accepted")
	}
	path := fixtureLog(t, "example", vppb.WorkloadParams{})
	if _, _, err := runCmd(t, "-log", path, "-cpus", "0"); err == nil {
		t.Fatal("-cpus 0 accepted")
	}
	if _, _, err := runCmd(t, "-log", path, "-strict", "-repair"); err == nil {
		t.Fatal("-strict -repair accepted")
	}
}

func TestRepairFlow(t *testing.T) {
	// Damage a valid log with the fault injector and check auto-repair
	// vs -strict.
	log, err := vppb.RecordWorkload("example", vppb.WorkloadParams{})
	if err != nil {
		t.Fatal(err)
	}
	damaged, _, err := vppb.CorruptLog(log, "drop-after", 7)
	if err != nil {
		t.Fatal(err)
	}
	if damaged.Validate() == nil {
		t.Fatal("fault injection produced a valid log")
	}
	path := filepath.Join(t.TempDir(), "damaged.bin")
	if err := vppb.WriteLog(path, damaged); err != nil {
		t.Fatal(err)
	}
	out, errOut, err := runCmd(t, "-log", path)
	if err != nil {
		t.Fatalf("auto-repair failed: %v", err)
	}
	if !strings.Contains(errOut, "repaired") {
		t.Errorf("stderr lacks the repair note: %s", errOut)
	}
	if !strings.Contains(out, "speed-up upper bound") {
		t.Errorf("repaired analysis missing:\n%s", out)
	}
	if _, _, err := runCmd(t, "-log", path, "-strict"); err == nil {
		t.Fatal("-strict accepted a corrupt log")
	}
}

// TestUsageErrorsExitStatusTwo: every invocation mistake exits with
// status 2, a runtime failure with 1.
func TestUsageErrorsExitStatusTwo(t *testing.T) {
	path := fixtureLog(t, "example", vppb.WorkloadParams{})
	for _, args := range [][]string{
		{},
		{"-no-such-flag"},
		{"-log", path, "-strict", "-repair"},
		{"-log", path, "-cpus", "0"},
		{"-log", path, "-cpus", "2,x"},
		{"-log", path, "-cpus", "4097"},
		{"-log", path, "-bound-at", "x"},
		{"-log", path, "-format", "pcap"},
		{"-log", "/no/such/file.log", "-top", "x"},
	} {
		_, _, err := runCmd(t, args...)
		if err == nil {
			t.Errorf("args %v accepted", args)
			continue
		}
		if code := cli.ExitCode(err); code != 2 {
			t.Errorf("args %v: exitCode = %d, want 2", args, code)
		}
	}
	if _, _, err := runCmd(t, "-log", path, "-cpus", "4096", "-bound"); err != nil {
		t.Errorf("-cpus at the limit: %v", err)
	}
	// Runtime failures still exit 1.
	_, _, err := runCmd(t, "-log", "/no/such/file.log")
	if err == nil || cli.ExitCode(err) != 1 {
		t.Fatalf("missing file: err = %v, exitCode = %d; want exit 1", err, cli.ExitCode(err))
	}
}

// TestIngestVerdicts: vppb-analyze accepts, repairs (with the same summary) or
// refuses each shared frontend input exactly as ingest.Prepare does.
func TestIngestVerdicts(t *testing.T) {
	ingesttest.CheckCLI(t, run)
}
