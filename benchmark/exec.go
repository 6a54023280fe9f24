package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"vppb/internal/analysis"
	"vppb/internal/core"
	"vppb/internal/hb"
	"vppb/internal/ingest"
	"vppb/internal/metrics"
	"vppb/internal/serve"
	"vppb/internal/trace"
)

// optimizeBody mirrors the /v1/optimize response.
type optimizeBody struct {
	Trace         string `json:"trace"`
	Program       string `json:"program"`
	RecordedUS    int64  `json:"recorded_us"`
	Repaired      bool   `json:"repaired"`
	RepairSummary string `json:"repair_summary,omitempty"`
	*analysis.OptimizeResult
}

// sweepBody is record-sweep's canonical output: what vppb-sim prints for a
// fresh recording, as JSON. Speed-ups divide by the 1-CPU row.
type sweepBody struct {
	Program     string       `json:"program"`
	Events      int          `json:"recorded_events"`
	Predictions []prediction `json:"predictions"`
}

func sweepRows(cpus []int, res []*core.Result) []prediction {
	rows := make([]prediction, len(cpus))
	for i, c := range cpus {
		rows[i] = prediction{CPUs: c, PredictedUS: int64(res[i].Duration),
			Speedup: metrics.Speedup(res[0].Duration, res[i].Duration), Events: res[i].Events}
	}
	return rows
}

var zeroDigest = []byte(strings.Repeat("0", 64))

// viaHTTP sends op o to the server and verifies the reply.
func (b *bench) viaHTTP(c *client, o *op, body []byte, name string) error {
	status, resp, hdr, err := b.post(o.path, body)
	if err != nil {
		return err
	}
	if status != o.want.status {
		return fmt.Errorf("%s: status %d, want %d: %.200s", o.class, status, o.want.status, resp)
	}
	// Canonical body: the per-request stamp and content address of an
	// upload are replaced by the base name and zeros.
	digest := hdr.Get("X-Vppb-Trace")
	if o.upload {
		resp = bytes.ReplaceAll(resp, []byte(name), []byte(o.in.name))
		if digest != "" {
			resp = bytes.ReplaceAll(resp, []byte(digest), zeroDigest)
		}
	}
	return b.verifier.check(o.class, resp, func(canon []byte) error {
		if o.upload && digest != serve.Digest(body) {
			return fmt.Errorf("content address %q is not the SHA-256 of the upload", digest)
		}
		switch {
		case o.junk != nil:
			if !bytes.Contains(canon, []byte("unrecognized trace format")) {
				return fmt.Errorf("garbage refused with an unexpected reason: %s", canon)
			}
		case o.route == routePredict:
			var got predictBody
			if err := json.Unmarshal(canon, &got); err != nil {
				return err
			}
			if got.Program != o.in.name || got.Policy != o.policy || got.Repaired != o.in.repaired {
				return fmt.Errorf("program/policy/repaired = %q/%q/%v, want %q/%q/%v",
					got.Program, got.Policy, got.Repaired, o.in.name, o.policy, o.in.repaired)
			}
			return samePredictions(got.Predictions, o.want.preds)
		case o.route == routeBounds:
			if !bytes.Equal(canon, o.want.bounds) {
				return errors.New("bounds body differs from hb.Analyze(...).JSONBounds")
			}
		case o.route == routeOptimize:
			var got optimizeBody
			if err := json.Unmarshal(canon, &got); err != nil {
				return err
			}
			return checkOptimize(got.OptimizeResult, o.want.winner)
		}
		return nil
	})
}

func samePredictions(got, want []prediction) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d predictions, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.CPUs != w.CPUs || g.PredictedUS != w.PredictedUS || g.Events != w.Events {
			return fmt.Errorf("prediction %+v, direct simulation gives %+v", g, w)
		}
	}
	return nil
}

func checkOptimize(got *analysis.OptimizeResult, winner analysis.Candidate) error {
	if got == nil {
		return errors.New("optimize body without a result")
	}
	w := got.Winner
	if w.Policy != winner.Policy || w.CPUs != winner.CPUs || w.Duration != winner.Duration {
		return fmt.Errorf("winner %s@%d (%d us), exhaustive sweep picked %s@%d (%d us)",
			w.Policy, w.CPUs, w.Duration, winner.Policy, winner.CPUs, winner.Duration)
	}
	if got.Simulated+got.Pruned != len(got.Candidates) {
		return fmt.Errorf("simulated %d + pruned %d != %d candidates", got.Simulated, got.Pruned, len(got.Candidates))
	}
	return nil
}

// direct performs op o by calling each layer's public function in the
// order the server (or the CLI) does, with a span around every call when
// sl is non-nil, and verifies the outcome against the reference.
func (b *bench) direct(c *client, o *op, body []byte, name string, sl *spanLog) error {
	req := ""
	if sl != nil {
		req = fmt.Sprintf("c%d-%d", c.id, c.n)
	}
	key := "garbage"
	if o.in != nil {
		key = o.in.spec.key
	}
	root := sl.op(o.class, req, key)
	defer sl.finish(root, 0)

	if o.route == routeRecord {
		got, _, err := b.recordPipeline(o.in, sl, root)
		if err != nil {
			return err
		}
		return b.verifier.check(o.class, got, func(canon []byte) error {
			if !bytes.Equal(canon, o.want.body) {
				return errors.New("pipeline output differs from the set-up run")
			}
			return nil
		})
	}

	if o.junk != nil {
		if _, err := b.ingest(body, sl, root); !errors.Is(err, errUnrecognized) {
			return fmt.Errorf("%s: garbage not refused: %v", o.class, err)
		}
		return nil
	}
	in := o.in
	e := &entry{digest: b.digests[in], log: in.log, prof: in.prof, repaired: in.repaired}
	if o.upload {
		var err error
		if e, err = b.ingest(body, sl, root); err != nil {
			return fmt.Errorf("%s: %w", o.class, err)
		}
	}
	log := e.log

	var out any
	switch o.route {
	case routePredict:
		i := sl.begin("core.simulate", root)
		res, err := core.SimulateMany(e.prof, gridMachines(o.policy, o.cpus))
		sl.finish(i, gridEvents(res))
		if err != nil {
			return fmt.Errorf("%s: %w", o.class, err)
		}
		preds := predictions(o.cpus, res)
		if err := samePredictions(preds, o.want.preds); err != nil {
			return fmt.Errorf("%s: %w", o.class, err)
		}
		out = predictBody{Trace: e.digest, Program: log.Header.Program, RecordedUS: int64(log.Duration()),
			Policy: o.policy, Repaired: e.repaired, Predictions: preds}
	case routeBounds:
		i := sl.begin("hb.analyze", root)
		a, err := hb.Analyze(log)
		sl.finish(i, int64(len(log.Events)))
		if err != nil {
			return fmt.Errorf("%s: %w", o.class, err)
		}
		i = sl.begin("serve.encode", root)
		got, err := encodeJSON(a.JSONBounds(10))
		sl.finish(i, 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(bytes.ReplaceAll(got, []byte(name), []byte(in.name)), o.want.bounds) {
			return fmt.Errorf("%s: bounds body differs from the reference", o.class)
		}
		return nil
	case routeOptimize:
		i := sl.begin("analysis.optimize", root)
		res, err := analysis.Optimize(context.Background(), e.prof, in.an, analysis.OptimizeOptions{})
		sl.finish(i, optimizeEvents(res))
		if err != nil {
			return fmt.Errorf("%s: %w", o.class, err)
		}
		if err := checkOptimize(res, o.want.winner); err != nil {
			return fmt.Errorf("%s: %w", o.class, err)
		}
		out = optimizeBody{Trace: e.digest, Program: log.Header.Program, RecordedUS: int64(log.Duration()),
			Repaired: e.repaired, OptimizeResult: res}
	}
	i := sl.begin("serve.encode", root)
	_, err := encodeJSON(out)
	sl.finish(i, 0)
	return err
}

var errUnrecognized = errors.New("unrecognized trace format")

// entry is what an upload becomes on the server.
type entry struct {
	digest   string
	log      *trace.Log
	prof     *trace.Profile
	repaired bool
}

// ingest mirrors the server's upload path: content address, format
// sniffing and decode, validation, repair, profile, then the durable put.
func (b *bench) ingest(raw []byte, sl *spanLog, root int) (*entry, error) {
	e := &entry{}
	i := sl.begin("serve.digest", root)
	e.digest = serve.Digest(raw)
	sl.finish(i, int64(len(raw)))
	format := ingest.Detect(raw)
	if format == "" {
		return nil, errUnrecognized
	}
	log, err := decode(raw, format, sl, root)
	if err != nil {
		return nil, err
	}
	i = sl.begin("trace.validate", root)
	verr := log.Validate()
	sl.finish(i, int64(len(log.Events)))
	if e.repaired = verr != nil; e.repaired {
		i = sl.begin("trace.repair", root)
		log, _, err = trace.Repair(log)
		sl.finish(i, 0)
		if err != nil {
			return nil, err
		}
	}
	e.log = log
	i = sl.begin("trace.profile", root)
	e.prof, err = trace.BuildProfile(log)
	sl.finish(i, int64(len(log.Events)))
	if err != nil {
		return nil, err
	}
	i = sl.begin("serve.store_put", root)
	err = b.putStore.Put(e.digest, raw)
	sl.finish(i, int64(len(raw)))
	return e, err
}

// decode runs ingest.Decode under a span named for the encoding.
func decode(raw []byte, format string, sl *spanLog, root int) (*trace.Log, error) {
	name := "ingest.decode_text"
	if bytes.HasPrefix(raw, []byte("VPPB")) {
		name = "ingest.decode_binary"
	}
	i := sl.begin(name, root)
	log, err := ingest.Decode(raw, format, "")
	sl.finish(i, int64(len(raw)))
	return log, err
}

// recordPipeline is the CLI path of record-sweep: record the program,
// encode it as text, decode it, build the profile and predict it on 1, 2,
// 4 and 8 CPUs. It returns the canonical JSON of the predictions and the
// number of events simulated.
func (b *bench) recordPipeline(in *input, sl *spanLog, root int) ([]byte, int64, error) {
	i := sl.begin("recorder.record", root)
	log, err := record(in.spec, in.scale, in.name)
	if err != nil {
		sl.finish(i, 0)
		return nil, 0, err
	}
	sl.finish(i, int64(len(log.Events)))
	i = sl.begin("trace.encode_text", root)
	text := trace.AppendText(nil, log)
	sl.finish(i, int64(len(text)))
	decoded, err := decode(text, ingest.FormatVPPB, sl, root)
	if err != nil {
		return nil, 0, err
	}
	i = sl.begin("trace.profile", root)
	prof, err := trace.BuildProfile(decoded)
	sl.finish(i, int64(len(decoded.Events)))
	if err != nil {
		return nil, 0, err
	}
	// CPU count 1 is the first machine of the sweep and the baseline.
	i = sl.begin("core.simulate", root)
	res, err := core.SimulateMany(prof, gridMachines("", defaultCPUs)[1:])
	sl.finish(i, gridEvents(res))
	if err != nil {
		return nil, 0, err
	}
	i = sl.begin("serve.encode", root)
	body, err := json.Marshal(sweepBody{Program: decoded.Header.Program, Events: len(decoded.Events),
		Predictions: sweepRows(defaultCPUs, res)})
	sl.finish(i, 0)
	return body, gridEvents(res), err
}

func gridEvents(res []*core.Result) int64 {
	var n int64
	for _, r := range res {
		n += r.Events
	}
	return n
}

func optimizeEvents(res *analysis.OptimizeResult) int64 {
	if res == nil {
		return 0
	}
	var n int64
	for _, c := range res.Candidates {
		n += c.Events
	}
	return n
}
