package main

import (
	"math"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestWorkloads runs every workload briefly at seed 1, untraced and
// traced, and checks that every output verified and every metric of
// BENCHMARK.json was measured.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadList {
		// The window must outlast a few of the slowest ops (recording
		// ocean, optimizing ocean_16t), which take seconds under the race
		// detector.
		window := 3 * time.Second
		if w.recordOnly {
			window = 5 * time.Second
		}
		for _, traced := range []bool{false, true} {
			o := options{
				seed:    1,
				window:  window,
				warm:    200 * time.Millisecond,
				setups:  1,
				trace:   traced,
				root:    "..",
				workdir: t.TempDir(),
			}
			if traced {
				o.spans = filepath.Join(t.TempDir(), "spans.json")
			}
			r, err := run(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, traced, r.correct, r.attempted, r.failed, r.Errors)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			for _, m := range want {
				v, ok := r.metrics[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s = %v (present %v)", w.name, traced, m.Name, v, ok)
				}
			}
			if !traced {
				continue
			}
			// Stamping makes every upload new bytes; warm digests always hit.
			hit := r.metrics["serve.cache_hit_rate"]
			switch w.name {
			case "predict-warm":
				if hit < 0.99 {
					t.Errorf("predict-warm: cache hit rate %v, want >= 0.99", hit)
				}
			case "upload-cold":
				if hit != 0 {
					t.Errorf("upload-cold: cache hit rate %v, want 0", hit)
				}
			}
		}
	}
}

// TestListsMatchBenchmarkFile keeps the program's workload names and
// metric names and units equal to BENCHMARK.json's.
func TestListsMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadList))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloadList[i].name)
		}
	}
	check := func(kind string, file []metricSpec, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 4}, [3]float64{1, 4, 10}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSelfTimeSubtractsChildUnion checks that overlapping children are
// subtracted once.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	l := &spanLog{spans: []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 50},
		{name: "c", parent: 0, start: 90, end: 120},
	}}
	self := l.selfTimes()
	if want := []time.Duration{100 - 40 - 10, 30, 20, 30}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestVerdicts checks the comparison rules on made-up runs.
func TestVerdicts(t *testing.T) {
	lower := metricSpec{Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		name string
		new  []float64
		want string
	}{
		{"faster", shift(-20), "better"},
		{"same", shift(0.5), "unchanged"},
		{"slower", shift(15), "worse"},
		{"noisy", []float64{60, 140, 70, 130, 100, 100, 65, 135, 100, 100}, "unresolved"},
	} {
		if got := verdict(base, c.new, lower).name; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
