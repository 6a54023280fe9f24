package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"vppb/internal/core"
	"vppb/internal/ingest/ingesttest"
	"vppb/internal/metrics"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// TestPredictBodyMatchesTimelineReplays: /v1/predict replays without
// timelines, and its body must still equal, byte for byte, the body
// assembled from core.SimulateMany replays that build them.
func TestPredictBodyMatchesTimelineReplays(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "prodcons", 0.3)
	sizes := []int{1, 2, 4, 8}
	for _, policy := range []string{"ts", "rr"} {
		resp, body := post(t, ts.URL+"/v1/predict?cpus=1,2,4,8&policy="+policy, raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", policy, resp.StatusCode, body)
		}
		e, _, ok := s.Cache().Load(Digest(raw))
		if !ok {
			t.Fatal("upload not cached")
		}
		machines := []core.Machine{{CPUs: 1, Policy: policy}}
		for _, cpus := range sizes {
			machines = append(machines, core.Machine{CPUs: cpus, Policy: policy})
		}
		results, err := core.SimulateMany(e.Profile, machines)
		if err != nil {
			t.Fatal(err)
		}
		want := predictResponse{
			Trace:      e.Digest,
			Program:    e.Profile.Header.Program,
			RecordedUS: int64(e.Profile.Duration()),
			Policy:     policy,
		}
		for i, cpus := range sizes {
			res := results[i+1]
			if res.Timeline == nil {
				t.Fatal("reference replay built no timeline")
			}
			want.Predictions = append(want.Predictions, prediction{
				CPUs:        cpus,
				PredictedUS: int64(res.Duration),
				Speedup:     jsonFloat(metrics.Speedup(results[0].Duration, res.Duration)),
				Events:      res.Events,
			})
		}
		wantBody, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if wantBody = append(wantBody, '\n'); !bytes.Equal(body, wantBody) {
			t.Fatalf("%s: body differs from the timeline replays:\n--- served\n%s--- reference\n%s", policy, body, wantBody)
		}
	}
}

// TestMachineSizeLimitRejected: CPU counts beyond core.MaxCPUs are a 400
// naming the limit on every endpoint that takes one, an uploaded log
// whose thr_setconcurrency exceeds it fails its replay with 422, and the
// daemon keeps answering afterwards.
func TestMachineSizeLimitRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "example", 0.2)
	for _, path := range []string{
		"/v1/predict?cpus=2000000000",
		"/v1/predict?cpus=1,4097",
		"/v1/optimize?cpus=1,5000",
		"/v1/view.svg?cpus=2000000000",
		"/v1/view.html?cpus=4097",
	} {
		resp, body := post(t, ts.URL+path, raw)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "4096") {
			t.Errorf("%s: %d %s, want 400 naming the limit", path, resp.StatusCode, body)
		}
	}

	w, err := workloads.Get("radix")
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Threads: 4, Scale: 0.1}), recorder.Options{Program: w.Name})
	if err != nil {
		t.Fatal(err)
	}
	for i := range log.Events {
		if ev := &log.Events[i]; ev.Call == trace.CallThrSetConcurrency {
			ev.Prio = math.MaxInt32
		}
	}
	resp, body := post(t, ts.URL+"/v1/predict?cpus=2", trace.AppendText(nil, log))
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "thr_setconcurrency") {
		t.Errorf("huge thr_setconcurrency: %d %s, want 422", resp.StatusCode, body)
	}

	if resp, body := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the rejected requests: %d %s", resp.StatusCode, body)
	}
}

// TestIngestVerdicts: /v1/predict accepts (200), repairs (200 with the
// repair summary) or refuses (400 or 422) each shared frontend input
// exactly as ingest.Prepare and the CLIs do.
func TestIngestVerdicts(t *testing.T) {
	for _, c := range ingesttest.Cases(t) {
		_, ts := newTestServer(t, Config{})
		url := ts.URL + "/v1/predict?cpus=2"
		if c.Strict {
			url += "&strict=true"
		}
		resp, body := post(t, url, c.Raw)
		got := ingesttest.Verdict{Outcome: ingesttest.Refused}
		switch resp.StatusCode {
		case http.StatusOK:
			var pr predictResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			got.Outcome = ingesttest.Accepted
			if pr.Repaired {
				got = ingesttest.Verdict{Outcome: ingesttest.Repaired, Summary: pr.RepairSummary}
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Errorf("%s: status %d %s, want 200, 400 or 422", c.Name, resp.StatusCode, body)
		}
		if got != c.Want {
			t.Errorf("%s: verdict %+v (%d %s), want %+v", c.Name, got, resp.StatusCode, body, c.Want)
		}
	}
}
