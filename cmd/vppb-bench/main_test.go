package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vppb"
)

func runCmd(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := runMain(args, &out, &errb)
	return out.String(), errb.String(), err
}

// TestUnknownExperiment also covers the retired experiments: replay and
// sweep speed are measured by the benchmark under benchmark/, and the
// daemon's robustness by deterministic tests in internal/serve.
func TestUnknownExperiment(t *testing.T) {
	for _, name := range []string{"nope", "simspeed", "optimize", "chaos"} {
		if _, _, err := runCmd(t, "-experiment", name); err == nil {
			t.Errorf("unknown experiment %q accepted", name)
		}
	}
}

func TestFig2Experiment(t *testing.T) {
	out, _, err := runCmd(t, "-experiment", "fig2", "-scale", "0.2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"==> fig2", "thr_create thr_a"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig5WritesSVG(t *testing.T) {
	dir := t.TempDir()
	out, errOut, err := runCmd(t, "-experiment", "fig5", "-scale", "0.2", "-out", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "execution flow") {
		t.Error("no graphs in report")
	}
	if !strings.Contains(errOut, "fig5.svg") {
		t.Errorf("stderr = %q", errOut)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5.svg")); err != nil {
		t.Fatal(err)
	}
}

func TestLogStatsExperiment(t *testing.T) {
	out, _, err := runCmd(t, "-experiment", "logstats", "-scale", "0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ocean", "events/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestIOExperiment(t *testing.T) {
	out, _, err := runCmd(t, "-experiment", "io", "-scale", "0.2", "-runs", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dbserver") {
		t.Errorf("output missing dbserver:\n%s", out)
	}
}

func TestExperimentNamesAllWired(t *testing.T) {
	// Every advertised experiment must be dispatchable (run them at tiny
	// scale where cheap; table1/case5/overhead are covered by the
	// experiments package tests and would dominate runtime here).
	cheap := map[string]bool{"fig2": true, "fig4": true, "fig5": true, "logstats": true,
		"bound": true, "commdelay": true, "lwps": true}
	for _, name := range experimentNames {
		if !cheap[name] {
			continue
		}
		if _, _, err := runCmd(t, "-experiment", name, "-scale", "0.1", "-runs", "1"); err != nil {
			t.Errorf("experiment %s failed: %v", name, err)
		}
	}
}

// TestPoliciesExperimentJSON runs the policy sweep end to end and checks
// the BENCH_policies.json payload: one row per registered policy per CPU
// count, with positive durations and self-normalized speed-ups.
func TestPoliciesExperimentJSON(t *testing.T) {
	dir := t.TempDir()
	out, errOut, err := runCmd(t, "-experiment", "policies", "-scale", "0.1", "-runs", "1",
		"-json", "-out", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Policy sweep") {
		t.Errorf("report missing:\n%s", out)
	}
	if !strings.Contains(errOut, "BENCH_policies.json") {
		t.Errorf("stderr = %q", errOut)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_policies.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		Data       []struct {
			Policy     string  `json:"policy"`
			CPUs       int     `json:"cpus"`
			DurationUS int64   `json:"duration_us"`
			Speedup    float64 `json:"speedup"`
		} `json:"data"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	policies := vppb.SchedulingPolicies()
	wantRows := len(policies) * 3 // default CPUCounts {2, 4, 8}
	if doc.Experiment != "policies" || len(doc.Data) != wantRows {
		t.Fatalf("experiment %q with %d rows, want policies/%d", doc.Experiment, len(doc.Data), wantRows)
	}
	seen := map[string]int{}
	for _, row := range doc.Data {
		seen[row.Policy]++
		if row.DurationUS <= 0 || row.Speedup <= 0 {
			t.Errorf("%s@%d: duration %d speedup %.2f", row.Policy, row.CPUs, row.DurationUS, row.Speedup)
		}
	}
	for _, p := range policies {
		if seen[p] != 3 {
			t.Errorf("policy %s has %d rows, want 3", p, seen[p])
		}
	}
}

// TestUnknownPolicyRejected: vppb-bench validates -policy up front with a
// usage error (exit status 2) listing the valid names.
func TestUnknownPolicyRejected(t *testing.T) {
	_, _, err := runCmd(t, "-experiment", "fig2", "-policy", "lottery")
	if err == nil {
		t.Fatal("unknown -policy accepted")
	}
	if !strings.Contains(err.Error(), strings.Join(vppb.SchedulingPolicies(), ", ")) {
		t.Errorf("error does not list the valid policies: %v", err)
	}
	if code := exitCode(err); code != 2 {
		t.Errorf("exitCode = %d, want 2", code)
	}
}

// TestPolicyFlagThreadsThrough: a valid -policy reaches the experiment
// options and the cheap experiments still pass under it.
func TestPolicyFlagThreadsThrough(t *testing.T) {
	if _, _, err := runCmd(t, "-experiment", "fig5", "-scale", "0.1", "-runs", "1", "-policy", "fifo"); err != nil {
		t.Fatalf("fig5 under fifo: %v", err)
	}
}

func TestBoundsExperimentJSON(t *testing.T) {
	dir := t.TempDir()
	out, errOut, err := runCmd(t, "-experiment", "bounds", "-scale", "0.05", "-runs", "1",
		"-json", "-out", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Critical-path bounds vs Table 1") {
		t.Errorf("report missing:\n%s", out)
	}
	path := filepath.Join(dir, "BENCH_bounds.json")
	if !strings.Contains(errOut, "BENCH_bounds.json") {
		t.Errorf("stderr = %q", errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment  string  `json:"experiment"`
		WallSeconds float64 `json:"wall_seconds"`
		Data        []struct {
			Application string `json:"application"`
			Cells       []struct {
				CPUs      int     `json:"cpus"`
				Bound     float64 `json:"bound"`
				Predicted float64 `json:"predicted"`
			} `json:"cells"`
		} `json:"data"`
		Report string `json:"report"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if doc.Experiment != "bounds" || doc.WallSeconds <= 0 || doc.Report == "" {
		t.Fatalf("doc = %+v", doc)
	}
	if len(doc.Data) != 5 {
		t.Fatalf("applications = %d", len(doc.Data))
	}
	for _, row := range doc.Data {
		for _, c := range row.Cells {
			if c.Bound < 1 || c.Predicted < 1 {
				t.Errorf("%s@%d: bound %.2f predicted %.2f", row.Application, c.CPUs, c.Bound, c.Predicted)
			}
		}
	}
}
