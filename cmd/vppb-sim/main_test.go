package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vppb"
	"vppb/internal/cli"
	"vppb/internal/ingest/ingesttest"
)

// fixtureLog records a workload into a temp file once per test.
func fixtureLog(t *testing.T, workload string) string {
	t.Helper()
	log, err := vppb.RecordWorkload(workload, vppb.WorkloadParams{Scale: 0.2, Threads: 4})
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

func TestBasicPrediction(t *testing.T) {
	path := fixtureLog(t, "example")
	out, _, err := runCmd(t, "-log", path, "-cpus", "2", "-perthread")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"predicted duration", "predicted speed-up", "thr_a", "thr_b"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMissingLog(t *testing.T) {
	if _, _, err := runCmd(t); err == nil {
		t.Fatal("missing -log accepted")
	}
	if _, _, err := runCmd(t, "-log", "/nonexistent"); err == nil {
		t.Fatal("unreadable log accepted")
	}
}

func TestContentionAndCPUReports(t *testing.T) {
	path := fixtureLog(t, "prodcons")
	out, _, err := runCmd(t, "-log", path, "-cpus", "8", "-contention", "-cpureport")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"contention report", "buffer", "per-CPU occupancy", "average utilization", "serial"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The buffer mutex serializes nearly the whole run: its serialization
	// score must head the table.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "buffer") && !strings.Contains(line, "%") {
			t.Errorf("buffer row lacks a serialization score: %s", line)
		}
	}
	// Without a report no timeline is built; the prediction lines must not
	// change.
	plain, _, err := runCmd(t, "-log", path, "-cpus", "8")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, plain) {
		t.Errorf("prediction without reports differs:\n--- plain\n%s--- with reports\n%s", plain, out)
	}
}

func TestSweep(t *testing.T) {
	path := fixtureLog(t, "example")
	out, _, err := runCmd(t, "-log", path, "-sweep", "1,2,4")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "x\n") != 3 {
		t.Fatalf("sweep rows:\n%s", out)
	}
	if _, _, err := runCmd(t, "-log", path, "-sweep", "1,zero"); err == nil {
		t.Fatal("bad sweep accepted")
	}
}

// TestSweepDeterministic pins the worker-pool contract: the parallel
// sweep prints byte-identical output across runs, and exactly what a
// sequential loop of single-machine simulations over the shared profile
// predicts.
func TestSweepDeterministic(t *testing.T) {
	path := fixtureLog(t, "fft")
	first, _, err := runCmd(t, "-log", path, "-sweep", "1,2,4,8")
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := runCmd(t, "-log", path, "-sweep", "1,2,4,8")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("two identical sweeps differ:\n--- first\n%s--- second\n%s", first, second)
	}

	// Sequential reference: one profile, one SimulateProfile per machine,
	// formatted the same way.
	log, err := vppb.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := vppb.BuildProfile(log)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := vppb.SimulateProfile(prof, vppb.Machine{CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "%6s %16s %10s\n", "CPUs", "predicted time", "speed-up")
	for _, cpus := range []int{1, 2, 4, 8} {
		res, err := vppb.SimulateProfile(prof, vppb.Machine{CPUs: cpus})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "%6d %16s %9.2fx\n", cpus, res.Duration, vppb.Speedup(uni.Duration, res.Duration))
	}
	if first != want.String() {
		t.Fatalf("parallel sweep != sequential loop:\n--- parallel\n%s--- sequential\n%s", first, want.String())
	}
}

// TestSweepBaselineSharesMachineParameters: the uniprocessor baseline
// inherits -lwps and -commdelay, so the 1-CPU sweep point is the baseline
// itself and must print a speed-up of exactly 1.00.
func TestSweepBaselineSharesMachineParameters(t *testing.T) {
	path := fixtureLog(t, "example")
	out, _, err := runCmd(t, "-log", path, "-sweep", "1,4", "-lwps", "2", "-commdelay", "50")
	if err != nil {
		t.Fatal(err)
	}
	var ones int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "1 ") && strings.HasSuffix(line, "1.00x") {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("1-CPU row should equal the shared-parameter baseline (speed-up 1.00x):\n%s", out)
	}
}

func TestTimelineOutput(t *testing.T) {
	path := fixtureLog(t, "example")
	tlPath := filepath.Join(t.TempDir(), "x.tl")
	_, errOut, err := runCmd(t, "-log", path, "-cpus", "2", "-timeline", tlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "wrote") {
		t.Fatalf("stderr = %q", errOut)
	}
	data, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := vppb.UnmarshalTimeline(data)
	if err != nil {
		t.Fatal(err)
	}
	if tl.CPUs != 2 {
		t.Fatalf("timeline CPUs = %d", tl.CPUs)
	}
}

// corruptLog records a workload, truncates the log, and stores it.
func corruptLog(t *testing.T) string {
	t.Helper()
	log, err := vppb.RecordWorkload("example", vppb.WorkloadParams{Scale: 0.2, Threads: 4})
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

func TestMissingFileNamedInError(t *testing.T) {
	_, _, err := runCmd(t, "-log", "/no/such/file.log")
	if err == nil || !strings.Contains(err.Error(), "/no/such/file.log") {
		t.Fatalf("error does not name the file: %v", err)
	}
}

func TestParseErrorNamesFileAndLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.log")
	if err := os.WriteFile(path, []byte("not a log\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := runCmd(t, "-log", path)
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error lacks the file or line number: %v", err)
	}
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
	if !strings.Contains(out, "predicted duration") {
		t.Fatalf("no prediction printed:\n%s", out)
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
}

func TestStrictAcceptsClean(t *testing.T) {
	path := fixtureLog(t, "example")
	if _, _, err := runCmd(t, "-log", path, "-cpus", "2", "-strict"); err != nil {
		t.Fatal(err)
	}
}

func TestStrictRepairConflict(t *testing.T) {
	path := fixtureLog(t, "example")
	_, _, err := runCmd(t, "-log", path, "-strict", "-repair")
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v", err)
	}
}

func TestEventBudgetFlag(t *testing.T) {
	path := fixtureLog(t, "example")
	_, _, err := runCmd(t, "-log", path, "-cpus", "2", "-max-events", "1")
	if err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("err = %v", err)
	}
}

// TestMainExitCode re-executes the test binary as the real command to
// assert the process-level contract: exit status 1 and a one-line
// diagnostic naming the offending file.
func TestMainExitCode(t *testing.T) {
	if os.Getenv("VPPB_SIM_MAIN_TEST") == "1" {
		os.Args = []string{"vppb-sim", "-log", "/no/such/file.log"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestMainExitCode")
	cmd.Env = append(os.Environ(), "VPPB_SIM_MAIN_TEST=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want non-zero exit, got err=%v output=%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(string(out), "vppb-sim: /no/such/file.log:") {
		t.Fatalf("diagnostic missing:\n%s", out)
	}
}

// TestPolicyFlag: every registered policy is accepted, named in the
// machine line, and produces byte-identical output across runs.
func TestPolicyFlag(t *testing.T) {
	path := fixtureLog(t, "prodcons")
	for _, policy := range vppb.SchedulingPolicies() {
		first, _, err := runCmd(t, "-log", path, "-cpus", "4", "-policy", policy)
		if err != nil {
			t.Fatalf("-policy %s: %v", policy, err)
		}
		if !strings.Contains(first, "policy "+policy) {
			t.Errorf("-policy %s: machine line does not name the policy:\n%s", policy, first)
		}
		second, _, err := runCmd(t, "-log", path, "-cpus", "4", "-policy", policy)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Errorf("-policy %s: two identical runs differ:\n--- first\n%s--- second\n%s",
				policy, first, second)
		}
	}
}

// TestPolicySweepDeterministic: the concurrent sweep stays byte-identical
// across runs under a non-default policy too.
func TestPolicySweepDeterministic(t *testing.T) {
	path := fixtureLog(t, "fft")
	first, _, err := runCmd(t, "-log", path, "-sweep", "1,2,4", "-policy", "rr")
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := runCmd(t, "-log", path, "-sweep", "1,2,4", "-policy", "rr")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("rr sweeps differ:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestUnknownPolicyRejected: an unknown -policy is a usage error (exit
// status 2) whose message lists every valid name.
func TestUnknownPolicyRejected(t *testing.T) {
	path := fixtureLog(t, "example")
	_, _, err := runCmd(t, "-log", path, "-policy", "lottery")
	if err == nil {
		t.Fatal("unknown -policy accepted")
	}
	for _, want := range append([]string{"lottery"}, vppb.SchedulingPolicies()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if code := cli.ExitCode(err); code != 2 {
		t.Errorf("exitCode = %d, want the usage-error status 2", code)
	}
}

// TestMainExitCodeUsageError re-executes the binary with a bad -policy to
// assert the process-level contract: exit status 2 and a diagnostic
// listing the valid policies.
func TestMainExitCodeUsageError(t *testing.T) {
	if os.Getenv("VPPB_SIM_USAGE_TEST") == "1" {
		os.Args = []string{"vppb-sim", "-log", "whatever.log", "-policy", "lottery"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestMainExitCodeUsageError")
	cmd.Env = append(os.Environ(), "VPPB_SIM_USAGE_TEST=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want non-zero exit, got err=%v output=%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("exit code = %d, want 2 for a usage error", code)
	}
	if !strings.Contains(string(out), "unknown scheduling policy") ||
		!strings.Contains(string(out), strings.Join(vppb.SchedulingPolicies(), ", ")) {
		t.Fatalf("diagnostic does not list the valid policies:\n%s", out)
	}
}

func TestOverrideFlags(t *testing.T) {
	path := fixtureLog(t, "example")
	out, _, err := runCmd(t, "-log", path, "-cpus", "2",
		"-bind", "4=cpu:1", "-bind", "5=lwp", "-prio", "4=55")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "predicted duration") {
		t.Fatal("no prediction output")
	}
	// Malformed overrides are rejected.
	for _, bad := range []string{"x", "4=cpu:x", "4=teapot", "nan=lwp"} {
		if _, _, err := runCmd(t, "-log", path, "-bind", bad); err == nil {
			t.Errorf("bad -bind %q accepted", bad)
		}
	}
	for _, bad := range []string{"x", "4=x", "nan=5"} {
		if _, _, err := runCmd(t, "-log", path, "-prio", bad); err == nil {
			t.Errorf("bad -prio %q accepted", bad)
		}
	}
}

// TestMachineSizeFlagsExitTwo: a machine beyond vppb.MaxCPUs CPUs or LWPs
// is a usage error (exit status 2) naming the limit, never an attempt to
// allocate it. So is every other invocation mistake: an unknown or
// malformed flag, a missing -log, an unknown -format, and -strict with
// -repair.
func TestMachineSizeFlagsExitTwo(t *testing.T) {
	path := fixtureLog(t, "example")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-log", path, "-cpus", "2000000000"}, "4096"},
		{[]string{"-log", path, "-lwps", "4097"}, "4096"},
		{[]string{"-log", path, "-sweep", "1,4097"}, "4096"},
		{[]string{"-log", path, "-optimize", "-sweep", "2000000000"}, "4096"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"-log", path, "-bind", "4=teapot"}, "teapot"},
		{[]string{"-cpus", "2"}, "missing -log"},
		{[]string{"-log", path, "-strict", "-repair"}, "mutually exclusive"},
		{[]string{"-log", path, "-format", "pcap"}, "pcap"},
	} {
		_, _, err := runCmd(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to name %q", tc.args, err, tc.want)
			continue
		}
		if code := cli.ExitCode(err); code != 2 {
			t.Errorf("%v: exitCode = %d, want 2", tc.args, code)
		}
	}
	if _, _, err := runCmd(t, "-log", path, "-cpus", "4096", "-lwps", "4096"); err != nil {
		t.Errorf("a machine at the limit fails: %v", err)
	}
	// Runtime failures still exit 1.
	_, _, err := runCmd(t, "-log", "/no/such/file.log")
	if err == nil || cli.ExitCode(err) != 1 {
		t.Fatalf("missing file: err = %v, exitCode = %d; want exit 1", err, cli.ExitCode(err))
	}
}

// TestIngestVerdicts: vppb-sim accepts, repairs (with the same summary) or
// refuses each shared frontend input exactly as ingest.Prepare does.
func TestIngestVerdicts(t *testing.T) {
	ingesttest.CheckCLI(t, run, "-cpus", "2")
}
