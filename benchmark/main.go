// Command benchmark is VPPB's end-to-end and per-layer benchmark. It runs
// one seeded workload against an in-process vppb-serve (or, for
// record-sweep, the CLI pipeline), verifies every output against direct
// calls into the layers, and prints the metrics as JSON.
//
//	go -C benchmark run . -workload predict-warm -seed 1 -seconds 15
//	go -C benchmark run . -workload all -trace 1 -spans /tmp/spans.json
//	go -C benchmark run . -compare old.jsonl new.jsonl
//
// The last line of a run is {"correct", "attempted", "failed", "metrics"};
// the line before it names the workload, seed and outputs digest. With
// -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones of a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed: request order, scale jitter, faults and stamps")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write the spans here as Chrome trace-event JSON")
	root := flag.String("root", "..", "repository root holding the committed inputs")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the run's stores")
	compare := flag.Bool("compare", false, "compare two files of run output: -compare old new")
	bounds := flag.String("bounds", "../BENCHMARK.json", "BENCHMARK.json, for -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old new")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace wants 0 or 1")
		os.Exit(2)
	}

	ws := workloadList
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	o := options{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		warm:    2 * time.Second,
		setups:  3,
		trace:   *traced == 1,
		spans:   *spans,
		root:    *root,
		workdir: *workdir,
	}
	ok := true
	for _, w := range ws {
		r, err := run(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		for _, e := range r.Errors {
			fmt.Fprintln(os.Stderr, "benchmark: verification failed:", e)
		}
		if err := printReport(r); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		ok = ok && r.correct
	}
	if !ok {
		os.Exit(1)
	}
}

// printReport writes a run's info line, then its result line.
func printReport(r *report) error {
	defs := endToEndMetrics
	if r.Trace {
		defs = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	info, err := json.Marshal(r)
	if err != nil {
		return err
	}
	res, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", info, res)
	return nil
}
