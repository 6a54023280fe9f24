package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"vppb/internal/analysis"
	"vppb/internal/core"
	"vppb/internal/faultinject"
	"vppb/internal/hb"
	"vppb/internal/ingest"
	"vppb/internal/serve"
	"vppb/internal/trace"
)

// options configures one benchmark run.
type options struct {
	seed    int64
	window  time.Duration // measured time
	warm    time.Duration // unmeasured closed-loop load before the window
	setups  int           // set-ups timed for setup_s; the last one is used
	trace   bool
	spans   string // Chrome trace output of a traced run
	root    string // repository root, for committed inputs
	workdir string // parent of the run's stores
}

// metric names, units and meaning. BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"serve.digest_ms", "ms"},
	{"serve.store_put_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.outside_layers_ms", "ms"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.singleflight_shared", "count"},
	{"serve.shed", "count"},
	{"ingest.decode_text_ms", "ms"},
	{"ingest.decode_binary_ms", "ms"},
	{"ingest.decode_mb_per_s", "MB/s"},
	{"ingest.decode_alloc_mb", "MB"},
	{"trace.validate_ms", "ms"},
	{"trace.repair_ms", "ms"},
	{"trace.repaired_share", "ratio"},
	{"trace.profile_ms", "ms"},
	{"trace.encode_text_ms", "ms"},
	{"hb.analyze_ms", "ms"},
	{"core.simulate_ms", "ms"},
	{"core.events_per_op", "count"},
	{"core.sim_events_per_s", "1/s"},
	{"core.sim_events_per_s.oversubscribed", "1/s"},
	{"analysis.optimize_ms", "ms"},
	{"analysis.simulated_per_op", "count"},
	{"analysis.pruned_share", "ratio"},
	{"recorder.record_ms", "ms"},
	{"recorder.events_per_s", "1/s"},
	{"bench.tracing_overhead_pct", "%"},
}

// sample is one op completed inside a measured window.
type sample struct {
	class string
	mode  int // index into the modes the window rotated through
	lat   time.Duration
	ok    bool
}

// window is what one closed-loop phase measured.
type window struct {
	samples    []sample
	dur        time.Duration
	allocBytes uint64  // bytes allocated during the window
	liveBytes  float64 // mean live heap over the window
	unmeasured int     // failed ops outside the window (warm-up, drain)
}

type execFunc func(c *client, o *op, body []byte, name string, sl *spanLog) error

// mode is one way to perform an op, and whether it records spans.
type mode struct {
	exec   execFunc
	traced bool
}

// drive runs every client closed loop, each sending its next op only when
// the previous one returned, for warm+dur. Ops completing in the last dur
// are measured. A client's n-th op runs in modes[n % len(modes)], so the
// modes of a traced run share the same seconds of the same host.
func (b *bench) drive(cs []*client, warm, dur time.Duration, modes []mode) *window {
	// The live heap is only measured at collections; start from one, so
	// that a workload allocating slowly does not report set-up garbage.
	runtime.GC()
	start := time.Now()
	warmEnd, end := start.Add(warm), start.Add(warm+dur)
	per := make([][]sample, len(cs))
	failed := make([]int, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				o := c.next()
				c.n++
				body, name := b.body(c, o)
				k := int(c.n % int64(len(modes)))
				var sl *spanLog
				if modes[k].traced {
					sl = c.spans
				}
				t0 := time.Now()
				err := modes[k].exec(c, o, body, name, sl)
				t1 := time.Now()
				if err != nil {
					b.verifier.note(err)
				}
				if t1.Before(warmEnd) || t1.After(end) {
					if err != nil {
						failed[i]++
					}
					continue
				}
				per[i] = append(per[i], sample{class: o.class, mode: k, lat: t1.Sub(t0), ok: err == nil})
			}
		}()
	}

	// Memory over the window: bytes allocated, and the live heap as of the
	// latest collection, averaged over frequent samples so that what one
	// moment has in flight or cached does not decide the figure.
	time.Sleep(time.Until(warmEnd))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	live := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var lives []float64
	for {
		rtmetrics.Read(live)
		lives = append(lives, float64(live[0].Value.Uint64()))
		left := time.Until(end)
		if left <= 0 {
			break
		}
		time.Sleep(min(left, 50*time.Millisecond))
	}
	runtime.ReadMemStats(&m1)
	wg.Wait()

	w := &window{dur: dur, allocBytes: m1.TotalAlloc - m0.TotalAlloc, liveBytes: mean(lives)}
	for i := range cs {
		w.samples = append(w.samples, per[i]...)
		w.unmeasured += failed[i]
	}
	return w
}

// plain returns how the workload's ops are measured end to end: through
// HTTP for the serving workloads, by direct calls for record-sweep.
func (b *bench) plain() mode {
	if b.srv == nil {
		return mode{exec: b.direct}
	}
	return mode{exec: func(c *client, o *op, body []byte, name string, _ *spanLog) error {
		return b.viaHTTP(c, o, body, name)
	}}
}

// report is the outcome of one run.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   float64  `json:"seconds"`
	Digest    string   `json:"outputs_digest"`
	Errors    []string `json:"errors,omitempty"`
	attempted int
	failed    int
	correct   bool
	metrics   map[string]float64
}

// run sets up one workload, measures it, and tears it down.
func run(w *workload, o options) (*report, error) {
	setups := o.setups
	if o.trace || setups < 1 {
		setups = 1
	}
	var b *bench
	var took []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = newBench(w, o); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	defer b.close()

	r := &report{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.window.Seconds(), metrics: map[string]float64{}}
	epoch := time.Now()
	if !o.trace {
		win := b.drive(b.newClients(epoch), o.warm, o.window, []mode{b.plain()})
		r.count(win)
		r.metrics["setup_s"] = median(took)
		b.endToEnd(win, r.metrics)
	} else {
		var err error
		if b.putStore, err = serve.OpenStore(filepath.Join(b.dir, "direct")); err != nil {
			return nil, err
		}
		census := newSpanLog(epoch, clients, "census")
		totals, err := b.census(census)
		if err != nil {
			return nil, err
		}
		// Ops rotate through the plain path, the direct calls with spans,
		// and the direct calls without: the first and second give the time
		// outside every layer, the second and third the tracing overhead.
		cs := b.newClients(epoch)
		hits0, misses0, shared0, shed0 := b.serverCounts()
		win := b.drive(cs, o.warm, o.window, []mode{b.plain(), {exec: b.direct, traced: true}, {exec: b.direct}})
		hits1, misses1, shared1, shed1 := b.serverCounts()
		r.count(win)
		logs := []*spanLog{census}
		for _, c := range cs {
			logs = append(logs, c.spans)
		}
		m := r.metrics
		b.perLayer(logs, totals, win, m)
		m["serve.cache_hit_rate"] = ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
		m["serve.singleflight_shared"] = float64(shared1 - shared0)
		m["serve.shed"] = float64(shed1 - shed0)
		if o.spans != "" {
			if err := writeChromeTrace(o.spans, logs); err != nil {
				return nil, err
			}
		}
	}
	r.Digest = b.verifier.digest()
	r.Errors = b.verifier.errors
	r.correct = r.failed == 0 && len(r.Errors) == 0
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.name, name, v)
		}
	}
	return r, nil
}

// count adds a window's ops to the run's totals.
func (r *report) count(w *window) {
	r.attempted += len(w.samples)
	r.failed += w.unmeasured
	for _, s := range w.samples {
		if !s.ok {
			r.failed++
		}
	}
}

// endToEnd computes the user-visible metrics of an untraced window.
func (b *bench) endToEnd(w *window, m map[string]float64) {
	lats := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lats[i] = ms(s.lat)
	}
	sort.Float64s(lats)
	ops := float64(len(w.samples))
	m["throughput_per_s"] = ops / w.dur.Seconds()
	m["latency_p50_ms"] = quantile(lats, 0.50)
	m["latency_p95_ms"] = quantile(lats, 0.95)
	m["alloc_mb_per_op"] = ratio(float64(w.allocBytes)/1e6, ops)
	m["heap_live_mb"] = w.liveBytes / 1e6
}

// serverCounts reads the server's cache, singleflight and shedding
// counters (all zero without a server).
func (b *bench) serverCounts() (hits, misses, shared, shed int64) {
	if b.srv == nil {
		return 0, 0, 0, 0
	}
	hits, misses, _ = b.srv.Cache().Stats()
	return hits, misses, b.srv.Metrics().SingleflightShared().Load(), b.srv.Metrics().Shed().Load()
}

// censusTotals are the counts the census takes besides its spans.
type censusTotals struct {
	decodes     int
	decodeAlloc uint64
	optimizes   int
	simulated   int
	pruned      int
}

// census passes every distinct input of the workload once through every
// layer, so each per-layer metric has calls on every workload, including
// layers the workload's own ops never reach.
func (b *bench) census(sl *spanLog) (*censusTotals, error) {
	t := &censusTotals{}
	var err error
	for _, in := range b.inputs {
		root := sl.op("census", "census/"+in.spec.key, in.spec.key)
		log := in.log
		if in.spec.program != "" {
			i := sl.begin("recorder.record", root)
			if log, err = record(in.spec, in.scale, in.name); err != nil {
				return nil, err
			}
			sl.finish(i, int64(len(log.Events)))
		}
		i := sl.begin("trace.encode_text", root)
		text := trace.AppendText(nil, log)
		sl.finish(i, int64(len(text)))
		i = sl.begin("serve.digest", root)
		digest := serve.Digest(text)
		sl.finish(i, int64(len(text)))
		var decoded *trace.Log
		for _, raw := range [][]byte{text, trace.AppendBinary(nil, log)} {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			decoded, err = decode(raw, ingest.FormatVPPB, sl, root)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, err
			}
			t.decodes++
			t.decodeAlloc += m1.TotalAlloc - m0.TotalAlloc
		}
		i = sl.begin("trace.validate", root)
		err := decoded.Validate()
		sl.finish(i, int64(len(decoded.Events)))
		if err != nil {
			return nil, fmt.Errorf("census of %s: %w", in.spec.key, err)
		}
		for _, class := range faultinject.Classes() {
			bad, _, err := faultinject.Inject(decoded, class, 1)
			if err != nil || bad.Validate() == nil {
				continue
			}
			i = sl.begin("trace.repair", root)
			_, _, err = trace.Repair(bad)
			sl.finish(i, 0)
			if err == nil {
				break
			}
		}
		i = sl.begin("trace.profile", root)
		prof, err := trace.BuildProfile(decoded)
		sl.finish(i, int64(len(decoded.Events)))
		if err != nil {
			return nil, err
		}
		i = sl.begin("hb.analyze", root)
		a, err := hb.Analyze(decoded)
		sl.finish(i, int64(len(decoded.Events)))
		if err != nil {
			return nil, err
		}
		i = sl.begin("core.simulate", root)
		res, err := core.SimulateMany(prof, gridMachines("", defaultCPUs))
		sl.finish(i, gridEvents(res))
		if err != nil {
			return nil, err
		}
		i = sl.begin("analysis.optimize", root)
		opt, err := analysis.Optimize(context.Background(), prof, a, analysis.OptimizeOptions{})
		sl.finish(i, optimizeEvents(opt))
		if err != nil {
			return nil, err
		}
		t.optimizes++
		t.simulated += opt.Simulated
		t.pruned += opt.Pruned
		i = sl.begin("serve.encode", root)
		_, err = encodeJSON(predictBody{Trace: digest, Program: decoded.Header.Program, RecordedUS: int64(decoded.Duration()),
			Policy: "ts", Predictions: predictions(defaultCPUs, res)})
		sl.finish(i, 0)
		if err != nil {
			return nil, err
		}
		i = sl.begin("serve.store_put", root)
		err = b.putStore.Put(digest, text)
		sl.finish(i, int64(len(text)))
		if err != nil {
			return nil, err
		}
		sl.finish(root, 0)
	}
	return t, nil
}

// perLayer computes the traced run's layer metrics from the census and
// the spans and samples of the traced window.
func (b *bench) perLayer(logs []*spanLog, t *censusTotals, win *window, m map[string]float64) {
	all := layerStats(logs, nil)
	rate := func(st *layerStat) float64 {
		if st == nil {
			return 0
		}
		return ratio(float64(st.work), st.self.Seconds())
	}
	for _, name := range []string{"serve.digest", "serve.store_put", "serve.encode", "ingest.decode_text",
		"ingest.decode_binary", "trace.validate", "trace.repair", "trace.profile", "trace.encode_text",
		"hb.analyze", "core.simulate", "analysis.optimize", "recorder.record"} {
		m[name+"_ms"] = all[name].meanMS()
	}
	text, bin := all["ingest.decode_text"], all["ingest.decode_binary"]
	m["ingest.decode_mb_per_s"] = ratio(float64(text.work+bin.work)/1e6, (text.self + bin.self).Seconds())
	m["ingest.decode_alloc_mb"] = ratio(float64(t.decodeAlloc)/1e6, float64(t.decodes))
	m["core.sim_events_per_s"] = rate(all["core.simulate"])
	over := layerStats(logs, func(s *span) bool { return s.name == "core.simulate" && b.oversubscribed(s.input) })
	m["core.sim_events_per_s.oversubscribed"] = rate(over["core.simulate"])
	m["recorder.events_per_s"] = rate(all["recorder.record"])
	m["analysis.simulated_per_op"] = ratio(float64(t.simulated), float64(t.optimizes))
	m["analysis.pruned_share"] = ratio(float64(t.pruned), float64(t.simulated+t.pruned))

	// Exact: simulated events per op over one round of every schedule.
	var events, ops float64
	for _, list := range b.ops {
		for _, o := range list {
			events += float64(o.want.events)
			ops++
		}
	}
	m["core.events_per_op"] = ratio(events, ops)

	// The workload's own ops only: how many of its validations failed.
	own := layerStats(logs[1:], nil)
	var repairs, validations float64
	if st := own["trace.repair"]; st != nil {
		repairs = float64(st.calls)
	}
	if st := own["trace.validate"]; st != nil {
		validations = float64(st.calls)
	}
	m["trace.repaired_share"] = ratio(repairs, validations)

	// Per op class: the layer time of a traced op (its span minus its own
	// self time), and the mean latency of each mode. Classes are combined
	// with the schedule's weights, so which ops happened to fall in which
	// mode does not change the mix.
	layers := map[string][]float64{}
	for _, l := range logs[1:] {
		self := l.selfTimes()
		for i, s := range l.spans {
			if s.parent < 0 {
				layers[s.name] = append(layers[s.name], ms(s.end-s.start-self[i]))
			}
		}
	}
	lat := [3]map[string][]float64{{}, {}, {}}
	for _, s := range win.samples {
		lat[s.mode][s.class] = append(lat[s.mode][s.class], ms(s.lat))
	}
	plain, layerSum := b.mix(lat[0], layers)
	m["serve.outside_layers_ms"] = plain - layerSum
	on, off := b.mix(lat[1], lat[2])
	m["bench.tracing_overhead_pct"] = 100 * ratio(on-off, off)
}

// mix averages two per-class samples with the classes' weights in the
// schedules, over the classes both have.
func (b *bench) mix(x, y map[string][]float64) (float64, float64) {
	weight := map[string]float64{}
	for _, list := range b.ops {
		for _, o := range list {
			weight[o.class]++
		}
	}
	var sx, sy, w float64
	for class, wt := range weight {
		if len(x[class]) == 0 || len(y[class]) == 0 {
			continue
		}
		sx += wt * mean(x[class])
		sy += wt * mean(y[class])
		w += wt
	}
	return ratio(sx, w), ratio(sy, w)
}

func (b *bench) oversubscribed(key string) bool {
	for _, in := range b.inputs {
		if in.spec.key == key {
			return in.spec.oversubscribed()
		}
	}
	return false
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
