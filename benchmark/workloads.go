package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"vppb/internal/analysis"
	"vppb/internal/core"
	"vppb/internal/metrics"
	"vppb/internal/sched"
)

// workload is one traffic mix. prepare finishes the set-up once the inputs
// exist: it starts the server, uploads what must be warm, computes the
// reference outcomes and fills each client's op schedule.
type workload struct {
	name       string // BENCHMARK.json says why each workload exists
	specs      []traceSpec
	recordOnly bool // inputs are recorded by the ops themselves
	prepare    func(b *bench) error
}

var workloadList = []*workload{
	{
		name: "predict-warm",
		specs: []traceSpec{
			{key: "fft", program: "fft", threads: 8, scale: 1, weight: 2},
			{key: "radix", program: "radix", threads: 8, scale: 1, weight: 2},
			{key: "lu", program: "lu", threads: 8, scale: 1, weight: 2},
			{key: "waterspatial", program: "waterspatial", threads: 8, scale: 1, weight: 2},
			{key: "ocean", program: "ocean", threads: 8, scale: 1},
			{key: "ocean_16t", program: "ocean", threads: 16, scale: 1, weight: 2},
			{key: "prodcons", program: "prodcons", scale: 1, weight: 2},
			{key: "gotrace", file: "internal/gotrace/testdata/go-mutexchan.trace"},
		},
		prepare: preparePredictWarm,
	},
	{
		name: "upload-cold",
		specs: []traceSpec{
			{key: "fft", program: "fft", threads: 8, scale: 1, weight: 2},
			{key: "radix", program: "radix", threads: 8, scale: 1, weight: 2},
			{key: "lu", program: "lu", threads: 8, scale: 1, weight: 2},
			{key: "waterspatial", program: "waterspatial", threads: 8, scale: 1, weight: 2},
			{key: "ocean", program: "ocean", threads: 8, scale: 1, binary: true},
			{key: "prodcons", program: "prodcons", scale: 1, binary: true},
			{key: "dbserver", program: "dbserver", threads: 8, scale: 1, weight: 2},
		},
		prepare: prepareUploadCold,
	},
	{
		name: "optimize-warm",
		specs: []traceSpec{
			{key: "fft", program: "fft", threads: 8, scale: 1},
			{key: "radix", program: "radix", threads: 8, scale: 1},
			{key: "lu", program: "lu", threads: 8, scale: 1},
			{key: "waterspatial", program: "waterspatial", threads: 8, scale: 1},
			{key: "ocean", program: "ocean", threads: 8, scale: 1},
			{key: "ocean_16t", program: "ocean", threads: 16, scale: 1},
			{key: "prodcons", program: "prodcons", scale: 1},
			{key: "dbserver", program: "dbserver", threads: 8, scale: 1},
		},
		prepare: prepareOptimizeWarm,
	},
	{
		name: "record-sweep",
		specs: []traceSpec{
			{key: "fft", program: "fft", threads: 8, scale: 1},
			{key: "radix", program: "radix", threads: 8, scale: 1},
			{key: "lu", program: "lu", threads: 8, scale: 1},
			{key: "waterspatial", program: "waterspatial", threads: 8, scale: 1},
			{key: "ocean", program: "ocean", threads: 8, scale: 0.25, weight: 2},
			{key: "prodcons", program: "prodcons", scale: 0.25},
			{key: "prodconsopt", program: "prodconsopt", scale: 0.25},
			{key: "dbserver", program: "dbserver", threads: 8, scale: 1, weight: 4},
		},
		recordOnly: true,
		prepare:    prepareRecordSweep,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// prediction is one row of a /v1/predict body.
type prediction struct {
	CPUs        int     `json:"cpus"`
	PredictedUS int64   `json:"predicted_us"`
	Speedup     float64 `json:"speedup"`
	Events      int64   `json:"events"`
}

// predictBody mirrors the /v1/predict response.
type predictBody struct {
	Trace         string       `json:"trace"`
	Program       string       `json:"program"`
	RecordedUS    int64        `json:"recorded_us"`
	Policy        string       `json:"policy"`
	Repaired      bool         `json:"repaired"`
	RepairSummary string       `json:"repair_summary,omitempty"`
	Predictions   []prediction `json:"predictions"`
}

// gridMachines is the server's prediction grid: the uniprocessor baseline
// followed by one machine per requested CPU count.
func gridMachines(policy string, cpus []int) []core.Machine {
	base := core.Machine{Policy: policy}
	ms := []core.Machine{base.Uniprocessor()}
	for _, c := range cpus {
		m := base
		m.CPUs = c
		ms = append(ms, m)
	}
	return ms
}

// predictions turns grid results into response rows.
func predictions(cpus []int, res []*core.Result) []prediction {
	out := make([]prediction, len(cpus))
	for i, c := range cpus {
		r := res[i+1]
		s := metrics.Speedup(res[0].Duration, r.Duration)
		if s != s { // NaN: the server writes null, which decodes as 0
			s = 0
		}
		out[i] = prediction{CPUs: c, PredictedUS: int64(r.Duration), Speedup: s, Events: r.Events}
	}
	return out
}

// predictRef simulates the grid directly: the reference for a predict op.
func predictRef(in *input, policy string, cpus []int) (*expect, error) {
	res, err := core.SimulateMany(in.prof, gridMachines(policy, cpus))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.spec.key, err)
	}
	return &expect{status: http.StatusOK, preds: predictions(cpus, res), events: gridEvents(res)}, nil
}

// boundsRef encodes the happens-before bounds report exactly as the server
// does.
func boundsRef(in *input) (*expect, error) {
	a, err := in.analysis()
	if err != nil {
		return nil, err
	}
	body, err := encodeJSON(a.JSONBounds(10))
	if err != nil {
		return nil, err
	}
	return &expect{status: http.StatusOK, bounds: body}, nil
}

// encodeJSON is the server's response encoding.
func encodeJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	return append(data, '\n'), err
}

// defaultCPUs is the server's default CPU grid.
var defaultCPUs = []int{1, 2, 4, 8}

func preparePredictWarm(b *bench) error {
	if err := b.startServer(); err != nil {
		return err
	}
	// Client 0 asks for the ts policy and client 1 for rr, so the two
	// never share a singleflight key.
	policies := [clients]string{"ts", "rr"}
	for _, in := range b.inputs {
		if err := b.upload(in); err != nil {
			return err
		}
		for c, policy := range policies {
			want, err := predictRef(in, policy, defaultCPUs)
			if err != nil {
				return err
			}
			b.schedule(c, in.spec.times(), op{
				class:  "predict/" + in.spec.key + "/" + policy,
				route:  routePredict,
				in:     in,
				policy: policy,
				cpus:   defaultCPUs,
				path:   "/v1/predict?trace=" + b.digests[in] + "&policy=" + policy,
				want:   want,
			})
		}
	}
	return nil
}

// faultedVariants is how many corrupted prodcons traces upload-cold cycles
// through; more variants average out the seed's choice of fault.
const faultedVariants = 4

func prepareUploadCold(b *bench) error {
	var prodcons *input
	for _, in := range b.inputs {
		if in.spec.key == "prodcons" {
			prodcons = in
		}
	}
	uploads := append([]*input(nil), b.inputs...)
	for i := 0; i < faultedVariants; i++ {
		in, err := corrupted(prodcons, fmt.Sprintf("prodcons_faulted%d", i), b.stamp, b.rng)
		if err != nil {
			return err
		}
		uploads = append(uploads, in)
	}
	// Half the requests ask for a 2-CPU prediction, half for the bounds
	// report; each corrupted variant goes to one of the two.
	for i, in := range uploads {
		pred, err := predictRef(in, sched.Default, []int{2})
		if err != nil {
			return err
		}
		bounds, err := boundsRef(in)
		if err != nil {
			return err
		}
		faulted := i >= len(b.inputs)
		for c := range b.ops {
			if !faulted || i%2 == 0 {
				b.schedule(c, in.spec.times(), op{class: "predict/" + in.spec.key, route: routePredict, in: in, upload: true,
					policy: sched.Default, cpus: []int{2}, path: "/v1/predict?cpus=2", want: pred})
			}
			if !faulted || i%2 == 1 {
				b.schedule(c, in.spec.times(), op{class: "bounds/" + in.spec.key, route: routeBounds, in: in, upload: true,
					path: "/v1/bounds", want: bounds})
			}
		}
	}
	refused := &expect{status: http.StatusBadRequest}
	for c := range b.ops {
		junk := garbage(b.rng, 2048)
		b.ops[c] = append(b.ops[c],
			op{class: "predict/garbage", route: routePredict, junk: junk, path: "/v1/predict?cpus=2", want: refused},
			op{class: "bounds/garbage", route: routeBounds, junk: junk, path: "/v1/bounds", want: refused})
	}
	return b.startServer()
}

func prepareOptimizeWarm(b *bench) error {
	if err := b.startServer(); err != nil {
		return err
	}
	for _, in := range b.inputs {
		if err := b.upload(in); err != nil {
			return err
		}
		a, err := in.analysis()
		if err != nil {
			return err
		}
		// The winner every pruned sweep must reproduce comes from one
		// exhaustive sweep through the server.
		path := "/v1/optimize?trace=" + b.digests[in]
		status, body, _, err := b.post(path+"&exhaustive=true", nil)
		if err != nil {
			return err
		}
		var ex optimizeBody
		if status != http.StatusOK || json.Unmarshal(body, &ex) != nil {
			return fmt.Errorf("exhaustive optimize of %s: status %d: %s", in.spec.key, status, body)
		}
		// The direct pruned sweep gives the simulated-event count.
		pruned, err := analysis.Optimize(context.Background(), in.prof, a, analysis.OptimizeOptions{})
		if err != nil {
			return err
		}
		if err := checkOptimize(pruned, ex.Winner); err != nil {
			return fmt.Errorf("direct optimize of %s: %w", in.spec.key, err)
		}
		want := &expect{status: http.StatusOK, winner: ex.Winner, events: optimizeEvents(pruned)}
		for c := range b.ops {
			b.schedule(c, in.spec.times(), op{class: "optimize/" + in.spec.key, route: routeOptimize, in: in, path: path, want: want})
		}
	}
	return nil
}

func prepareRecordSweep(b *bench) error {
	for _, in := range b.inputs {
		body, events, err := b.recordPipeline(in, nil, -1)
		if err != nil {
			return err
		}
		want := &expect{body: body, events: events}
		for c := range b.ops {
			b.schedule(c, in.spec.times(), op{class: "record/" + in.spec.key, route: routeRecord, in: in, want: want})
		}
	}
	return nil
}
