package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vppb"
	"vppb/internal/cli"
	"vppb/internal/ingest/ingesttest"
)

func fixtureLog(t *testing.T) string {
	t.Helper()
	log, err := vppb.RecordWorkload("example", vppb.WorkloadParams{Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "example.bin")
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

func TestRenderGraphs(t *testing.T) {
	path := fixtureLog(t)
	out, _, err := runCmd(t, "-log", path, "-cpus", "2", "-width", "60", "-lanes")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"parallelism", "execution flow", "thr_a", "CPU lanes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMissingInputs(t *testing.T) {
	if _, _, err := runCmd(t); err == nil {
		t.Fatal("no input accepted")
	}
	if _, _, err := runCmd(t, "-log", "/nonexistent"); err == nil {
		t.Fatal("unreadable log accepted")
	}
	if _, _, err := runCmd(t, "-timeline", "/nonexistent"); err == nil {
		t.Fatal("unreadable timeline accepted")
	}
}

func TestWindowAndThreads(t *testing.T) {
	path := fixtureLog(t)
	out, _, err := runCmd(t, "-log", path, "-cpus", "2",
		"-window", "0.01,0.05", "-threads", "4,5", "-zoom", "1", "-compress")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "main") {
		t.Fatalf("thread selection ignored:\n%s", out)
	}
	for _, bad := range [][]string{
		{"-window", "zzz"},
		{"-window", "5,1"},
		{"-window", "a,b"},
		{"-threads", "4,x"},
	} {
		args := append([]string{"-log", path, "-cpus", "2"}, bad...)
		if _, _, err := runCmd(t, args...); err == nil {
			t.Errorf("bad args %v accepted", bad)
		}
	}
}

func TestInspectWithSource(t *testing.T) {
	path := fixtureLog(t)
	out, _, err := runCmd(t, "-log", path, "-cpus", "2", "-inspect", "1", "-at", "0.1", "-source")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Thread:    T1", "Event:", "Source:"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
	if _, _, err := runCmd(t, "-log", path, "-inspect", "99"); err == nil {
		t.Fatal("inspecting unknown thread accepted")
	}
}

func TestSVGAndHTMLFiles(t *testing.T) {
	path := fixtureLog(t)
	dir := t.TempDir()
	svg := filepath.Join(dir, "x.svg")
	html := filepath.Join(dir, "x.html")
	_, errOut, err := runCmd(t, "-log", path, "-cpus", "2", "-svg", svg, "-html", html)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(errOut, "wrote") != 2 {
		t.Fatalf("stderr = %q", errOut)
	}
	svgData, err := os.ReadFile(svg)
	if err != nil || !strings.Contains(string(svgData), "<svg") {
		t.Fatalf("bad svg: %v", err)
	}
	htmlData, err := os.ReadFile(html)
	if err != nil || !strings.Contains(string(htmlData), "<!DOCTYPE html>") {
		t.Fatalf("bad html: %v", err)
	}
}

func TestTimelineInput(t *testing.T) {
	// Produce a timeline via the library, store it, view it.
	log, err := vppb.RecordWorkload("example", vppb.WorkloadParams{Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vppb.Simulate(log, vppb.Machine{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := vppb.MarshalTimeline(res.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.tl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCmd(t, "-timeline", path, "-width", "50")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "execution flow") {
		t.Fatalf("timeline view failed:\n%s", out)
	}
}

func corruptLog(t *testing.T) string {
	t.Helper()
	log, err := vppb.RecordWorkload("example", vppb.WorkloadParams{Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	bad, _, err := vppb.CorruptLog(log, "truncate", 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "truncated.log")
	if err := vppb.WriteLog(path, bad); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCorruptLogRepairedByDefault(t *testing.T) {
	path := corruptLog(t)
	out, errOut, err := runCmd(t, "-log", path, "-cpus", "2")
	if err != nil {
		t.Fatalf("graceful degradation failed: %v", err)
	}
	if !strings.Contains(errOut, "corrupt log repaired") {
		t.Fatalf("stderr lacks the repair note:\n%s", errOut)
	}
	if !strings.Contains(out, "execution flow") {
		t.Fatalf("no graphs rendered:\n%s", out)
	}
}

func TestRepairFlagPrintsReport(t *testing.T) {
	path := corruptLog(t)
	_, errOut, err := runCmd(t, "-log", path, "-cpus", "2", "-repair")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "repair:") || !strings.Contains(errOut, "[synthesize-afters]") {
		t.Fatalf("stderr lacks the full repair report:\n%s", errOut)
	}
}

func TestStrictRejectsCorrupt(t *testing.T) {
	path := corruptLog(t)
	_, _, err := runCmd(t, "-log", path, "-cpus", "2", "-strict")
	if err == nil || !strings.Contains(err.Error(), "corrupt log") || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v", err)
	}
	if code := cli.ExitCode(err); code != 1 {
		t.Fatalf("a corrupt log is a runtime failure: exitCode = %d, want 1", code)
	}
}

func TestStrictAcceptsClean(t *testing.T) {
	path := fixtureLog(t)
	if _, _, err := runCmd(t, "-log", path, "-cpus", "2", "-strict"); err != nil {
		t.Fatal(err)
	}
}

func TestUsageErrorsExitStatusTwo(t *testing.T) {
	path := fixtureLog(t)
	for _, args := range [][]string{
		{},
		{"-log", path, "-strict", "-repair"},
		{"-log", path, "-window", "zzz"},
		{"-log", path, "-window", "a,b"},
		{"-log", path, "-threads", "4,x"},
		{"-no-such-flag"},
		{"-log", path, "stray-arg"},
		{"-log", path, "-cpus", "2000000000"},
		{"-log", path, "-lwps", "4097"},
		{"-log", path, "-format", "pcap"},
		{"-log", path, "-bogus"},
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
	// Runtime failures still exit 1.
	_, _, err := runCmd(t, "-log", "/no/such/file.log")
	if err == nil || cli.ExitCode(err) != 1 {
		t.Fatalf("missing file: err = %v, exitCode = %d; want exit 1", err, cli.ExitCode(err))
	}
}

// TestMainExitCode re-executes the test binary as the real command to
// assert the process-level contract: exit status 1 for runtime failures
// and a one-line diagnostic naming the offending file.
func TestMainExitCode(t *testing.T) {
	if os.Getenv("VPPB_VIEW_MAIN_TEST") == "1" {
		os.Args = []string{"vppb-view", "-log", "/no/such/file.log"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestMainExitCode")
	cmd.Env = append(os.Environ(), "VPPB_VIEW_MAIN_TEST=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want non-zero exit, got err=%v output=%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(string(out), "vppb-view:") {
		t.Fatalf("diagnostic missing:\n%s", out)
	}
}

// TestMainExitCodeUsageError re-executes the binary with no input flags
// to assert the process-level contract: exit status 2 for usage errors.
func TestMainExitCodeUsageError(t *testing.T) {
	if os.Getenv("VPPB_VIEW_USAGE_TEST") == "1" {
		os.Args = []string{"vppb-view"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestMainExitCodeUsageError")
	cmd.Env = append(os.Environ(), "VPPB_VIEW_USAGE_TEST=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want non-zero exit, got err=%v output=%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("exit code = %d, want 2 for a usage error", code)
	}
	if !strings.Contains(string(out), "need -log or -timeline") {
		t.Fatalf("diagnostic missing:\n%s", out)
	}
}

// TestIngestVerdicts: vppb-view accepts, repairs (with the same summary) or
// refuses each shared frontend input exactly as ingest.Prepare does.
func TestIngestVerdicts(t *testing.T) {
	ingesttest.CheckCLI(t, run, "-cpus", "2")
}
