package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runs maps workload -> metric -> the values of successive runs.
type runs map[string]map[string][]float64

// readRuns parses saved benchmark output: each result line belongs to the
// workload named by the info line before it. Other lines are skipped.
func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Workload string `json:"workload"`
			Metrics  map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		if line.Workload != "" {
			workload = line.Workload
		}
		if line.Metrics == nil || workload == "" {
			continue
		}
		if out[workload] == nil {
			out[workload] = map[string][]float64{}
		}
		for name, v := range line.Metrics {
			out[workload][name] = append(out[workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and metric, both sides' medians and
// quartiles and a verdict, and reports whether any metric got worse.
//
// Runs pair up in file order (run i of old with run i of new), so record
// them alternately. The verdicts follow the benchmark's rules:
//
//   - better: new wins at least 9 of 10 pairs (ties count for neither) and
//     the medians differ by more than the old runs' interquartile range;
//   - unresolved: either side's interquartile range, as a share of its
//     median, exceeds the metric's bound, so a change within the bound
//     cannot be told from noise;
//   - worse: the new median is worse than the old one by more than the
//     bound;
//   - unchanged: otherwise. Metrics without a bound get no such verdict.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	old, err := readRuns(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readRuns(newPath)
	if err != nil {
		return false, err
	}
	specs := map[string]metricSpec{}
	var order []string
	for _, s := range append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...) {
		specs[s.Name] = s
		order = append(order, s.Name)
	}
	var workloads []string
	for wl := range old {
		if cur[wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)

	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told median\t[q1, q3]\tnew median\t[q1, q3]\twins\tbound\tverdict\t")
	anyWorse := false
	for _, wl := range workloads {
		for _, name := range order {
			a, b := old[wl][name], cur[wl][name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			s := specs[name]
			v := verdict(a, b, s)
			anyWorse = anyWorse || v.name == "worse"
			bound := "-"
			if s.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*s.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t[%.4g, %.4g]\t%.4g\t[%.4g, %.4g]\t%d/%d\t%s\t%s\t\n",
				wl, name, v.oldQ[1], v.oldQ[0], v.oldQ[2], v.newQ[1], v.newQ[0], v.newQ[2], v.wins, v.pairs, bound, v.name)
		}
	}
	return anyWorse, tw.Flush()
}

type comparison struct {
	oldQ, newQ  [3]float64
	wins, pairs int
	name        string
}

func verdict(a, b []float64, s metricSpec) comparison {
	c := comparison{oldQ: quartiles(a), newQ: quartiles(b)}
	lower := s.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	gap := c.newQ[1] - c.oldQ[1]
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	switch {
	case 10*c.wins >= 9*c.pairs && better(c.newQ[1], c.oldQ[1]) && math.Abs(gap) > c.oldQ[2]-c.oldQ[0]:
		c.name = "better"
	case s.Bound == 0:
		c.name = "-"
	case spread(c.oldQ) > s.Bound || spread(c.newQ) > s.Bound:
		if allBetter(b, a, better) {
			c.name = "better"
		} else {
			c.name = "unresolved"
		}
	case better(c.oldQ[1], c.newQ[1]) && math.Abs(gap) > s.Bound*math.Abs(c.oldQ[1]):
		c.name = "worse"
	default:
		c.name = "unchanged"
	}
	return c
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), so spreads here match the ones the bounds were checked with.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}
