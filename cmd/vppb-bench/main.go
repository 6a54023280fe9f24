// Command vppb-bench regenerates the paper's evaluation: Table 1, figures
// 2, 4 and 5, the section-5 case study (figures 6 and 7), the section-4
// intrusion and log-size measurements, and the ablations listed in
// DESIGN.md.
//
// Usage:
//
//	vppb-bench -experiment all -out results/
//	vppb-bench -experiment table1
//	vppb-bench -experiment case5 -runs 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vppb"
	"vppb/internal/experiments"
	"vppb/internal/par"
)

// experimentNames in presentation order.
var experimentNames = []string{
	"table1", "bounds", "fig2", "fig4", "fig5", "case5", "overhead",
	"logstats", "bound", "commdelay", "lwps", "io", "faults", "policies",
	"chaos",
}

func main() {
	if err := runMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vppb-bench:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks an invocation mistake; the process exits with status 2,
// the conventional bad-command-line code.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// exitCode maps an error from runMain to a process exit status.
func exitCode(err error) int {
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

func runMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vppb-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which   = fs.String("experiment", "all", "experiment to run: all | "+joinNames())
		scale   = fs.Float64("scale", 1.0, "problem-size multiplier")
		runs    = fs.Int("runs", 5, "reference executions per Table-1 cell")
		out     = fs.String("out", "", "directory for SVG artifacts (omit to skip writing)")
		jsonOut = fs.Bool("json", false, "additionally write BENCH_<experiment>.json with the structured results and wall time")
		policy  = fs.String("policy", "", "scheduling policy for every machine in the experiments: "+strings.Join(vppb.SchedulingPolicies(), ", ")+" (default \"ts\"; the policies experiment sweeps all of them)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := vppb.CheckPolicy(*policy); err != nil {
		return usageError{fmt.Errorf("-policy: %w", err)}
	}

	opts := experiments.Options{Scale: *scale, Runs: *runs, Policy: *policy}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	names := []string{*which}
	if *which == "all" {
		names = experimentNames
	}

	// Evaluate the experiments concurrently on a bounded worker pool, then
	// emit reports and artifacts strictly in presentation order, so the
	// output is byte-identical to a sequential run.
	results := make([]benchResult, len(names))
	if err := par.ForEach(len(names), 0, func(i int) error {
		results[i] = runExperiment(names[i], opts)
		return nil
	}); err != nil {
		return err
	}

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i, name := range names {
		if firstErr != nil {
			break
		}
		r := results[i]
		fail(r.err)
		if r.err != nil {
			break
		}
		fmt.Fprintf(stdout, "==> %s\n\n", name)
		fmt.Fprintln(stdout, r.report)
		for _, svg := range r.svgs {
			fail(writeSVG(stderr, *out, svg.name, svg.data))
		}
		if *jsonOut {
			fail(writeBenchJSON(stderr, *out, name, opts, r.wall, r.report, r.payload))
		}
	}
	return firstErr
}

type svgArtifact struct {
	name string
	data string
}

// benchResult is one experiment's evaluation: the human report, the
// structured -json payload, SVG artifacts, wall time, or the failure.
type benchResult struct {
	report  string
	payload any
	svgs    []svgArtifact
	wall    time.Duration
	err     error
}

// runExperiment evaluates one named experiment. It only computes — all
// printing and file writing happens afterwards, in presentation order.
func runExperiment(name string, opts experiments.Options) benchResult {
	started := time.Now()
	var r benchResult
	switch name {
	case "table1":
		res, e := vppb.ExperimentTable1(opts)
		r.err = e
		if e == nil {
			r.report, r.payload = res.Report, res.Table
		}
	case "bounds":
		res, e := vppb.ExperimentBounds(opts)
		r.err = e
		if e == nil {
			r.report, r.payload = res.Report, res.Rows
		}
	case "fig2":
		res, e := vppb.ExperimentFig2(opts)
		r.err = e
		if e == nil {
			r.report = res.Report
		}
	case "fig4":
		res, e := vppb.ExperimentFig4(opts)
		r.err = e
		if e == nil {
			r.report = res.Report
		}
	case "fig5":
		res, e := vppb.ExperimentFig5(opts)
		r.err = e
		if e == nil {
			r.report = res.Report
			r.svgs = append(r.svgs, svgArtifact{"fig5.svg", res.SVG})
		}
	case "case5":
		res, e := vppb.ExperimentCase5(opts)
		r.err = e
		if e == nil {
			r.report = res.Report
			// The SVGs go to -out; the JSON keeps the numbers only.
			r.payload = map[string]float64{
				"naive_gain":    res.NaiveGain,
				"improved_pred": res.ImprovedPred,
				"improved_real": res.ImprovedReal,
				"error":         res.Error,
			}
			r.svgs = append(r.svgs,
				svgArtifact{"fig6.svg", res.NaiveSVG},
				svgArtifact{"fig7.svg", res.ImprovedSVG})
		}
	case "overhead":
		res, e := vppb.ExperimentOverhead(opts)
		r.err = e
		if e == nil {
			r.report, r.payload = res.Report, res.Rows
		}
	case "logstats":
		res, e := vppb.ExperimentLogStats(opts)
		r.err = e
		if e == nil {
			r.report, r.payload = res.Report, res.Rows
		}
	case "bound":
		res, e := vppb.AblationBound(opts)
		r.err = e
		if e == nil {
			r.report = res.Report
		}
	case "commdelay":
		res, e := vppb.AblationCommDelay(opts)
		r.err = e
		if e == nil {
			r.report = res.Report
		}
	case "lwps":
		res, e := vppb.AblationLWPs(opts)
		r.err = e
		if e == nil {
			r.report = res.Report
		}
	case "io":
		res, e := vppb.ExperimentIO(opts)
		r.err = e
		if e == nil {
			r.report = res.Report
		}
	case "faults":
		res, e := vppb.ExperimentFaults(opts)
		r.err = e
		if e == nil {
			r.report = res.Report
		}
	case "policies":
		res, e := vppb.ExperimentPolicySweep(opts)
		r.err = e
		if e == nil {
			r.report, r.payload = res.Report, res.Rows
		}
	case "chaos":
		res, e := vppb.ExperimentChaos(opts)
		r.err = e
		if e == nil {
			r.report, r.payload = res.Report, res
		}
	default:
		r.err = fmt.Errorf("unknown experiment %q (want all | %s)", name, joinNames())
	}
	r.wall = time.Since(started)
	return r
}

// writeBenchJSON stores one experiment's structured results as
// BENCH_<experiment>.json in the -out directory (or the working directory
// when -out is unset), so CI and regression tooling can diff numbers
// without parsing the text reports.
func writeBenchJSON(stderr io.Writer, dir, name string, opts experiments.Options, wall time.Duration, report string, payload any) error {
	doc := struct {
		Experiment  string  `json:"experiment"`
		Scale       float64 `json:"scale"`
		Runs        int     `json:"runs"`
		WallSeconds float64 `json:"wall_seconds"`
		Data        any     `json:"data,omitempty"`
		Report      string  `json:"report"`
	}{name, opts.Scale, opts.Runs, wall.Seconds(), payload, report}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

func writeSVG(stderr io.Writer, dir, name, svg string) error {
	if dir == "" || svg == "" {
		return nil
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

func joinNames() string {
	s := ""
	for i, n := range experimentNames {
		if i > 0 {
			s += " | "
		}
		s += n
	}
	return s
}
