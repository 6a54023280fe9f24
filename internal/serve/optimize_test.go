package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// optimizeBody is the subset of the /v1/optimize response the tests
// inspect.
type optimizeBody struct {
	Trace      string `json:"trace"`
	Program    string `json:"program"`
	Candidates []struct {
		Policy     string `json:"policy"`
		CPUs       int    `json:"cpus"`
		Duration   int64  `json:"duration"`
		LowerBound int64  `json:"lower_bound"`
		Pruned     bool   `json:"pruned"`
	} `json:"candidates"`
	Winner struct {
		Policy   string `json:"policy"`
		CPUs     int    `json:"cpus"`
		Duration int64  `json:"duration"`
	} `json:"winner"`
	Simulated int `json:"simulated"`
	Reused    int `json:"reused"`
	Pruned    int `json:"pruned"`
}

// TestOptimizeEndpoint is the end-to-end deployment question: one POST
// ranks the whole (policy × CPU) grid, the pruned sweep agrees with the
// exhaustive one, and the optimize counters land in /metrics.
func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "prodcons", 0.15)

	resp, body := post(t, ts.URL+"/v1/optimize", raw)
	if resp.StatusCode != 200 {
		t.Fatalf("POST /v1/optimize: %d %s", resp.StatusCode, body)
	}
	var opt optimizeBody
	if err := json.Unmarshal(body, &opt); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	if opt.Program != "prodcons" {
		t.Fatalf("program = %q", opt.Program)
	}
	if len(opt.Candidates) != 12 { // default 4-CPU grid x 3 policies
		t.Fatalf("candidate count = %d, want 12", len(opt.Candidates))
	}
	if opt.Simulated+opt.Pruned != len(opt.Candidates) {
		t.Fatalf("accounting: %d simulated + %d pruned != %d", opt.Simulated, opt.Pruned, len(opt.Candidates))
	}
	if opt.Winner.Duration <= 0 {
		t.Fatalf("winner has no duration: %+v", opt.Winner)
	}

	// The same sweep without sharing or pruning must crown the same
	// configuration with the same predicted duration.
	resp2, body2 := post(t, ts.URL+"/v1/optimize?exhaustive=true&trace="+opt.Trace, nil)
	if resp2.StatusCode != 200 {
		t.Fatalf("exhaustive POST: %d %s", resp2.StatusCode, body2)
	}
	var exh optimizeBody
	if err := json.Unmarshal(body2, &exh); err != nil {
		t.Fatal(err)
	}
	if exh.Pruned != 0 || exh.Reused != 0 {
		t.Fatalf("exhaustive sweep pruned %d and reused %d candidates", exh.Pruned, exh.Reused)
	}
	if opt.Reused == 0 {
		t.Fatal("the pruned sweep reused no replay; prodcons at 8 CPUs never waits for a CPU")
	}
	if opt.Winner != exh.Winner {
		t.Fatalf("winner mismatch: optimized %+v vs exhaustive %+v", opt.Winner, exh.Winner)
	}

	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"vppb_optimize_simulated_total",
		fmt.Sprintf("vppb_optimize_reused_total %d\n", opt.Reused),
		"vppb_optimize_pruned_total",
		`vppb_requests_total{route="/v1/optimize",code="200"} 2`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestOptimizeRejectsBadParams pins the parameter contract.
func TestOptimizeRejectsBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "example", 0.2)
	for _, q := range []string{"?cpus=zero", "?policies=nosuch", "?exhaustive=maybe"} {
		resp, body := post(t, ts.URL+"/v1/optimize"+q, raw)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d %s, want 400", q, resp.StatusCode, body)
		}
	}
}

// TestPredictSingleflightCollapse proves the collapsing contract under
// -race: N concurrent identical /v1/predict requests run exactly one
// simulation, the other N-1 share it (visible in
// vppb_singleflight_shared_total), and every client gets the same body.
func TestPredictSingleflightCollapse(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "example", 0.2)

	// The leader parks inside the simulation until every follower has
	// joined the flight (or a generous timeout passes), so the test cannot
	// pass by accident of one request finishing before the next begins.
	var sims atomic.Int64
	s.onSimulate = func(context.Context) {
		sims.Add(1)
		deadline := time.Now().Add(5 * time.Second)
		for s.Metrics().SingleflightShared().Load() < n-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict?cpus=1,2,4", "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()

	if got := sims.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want exactly 1", n, got)
	}
	if got := s.Metrics().SingleflightShared().Load(); got != n-1 {
		t.Fatalf("singleflight shared %d requests, want %d", got, n-1)
	}
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsBody), "vppb_singleflight_shared_total 7") {
		t.Fatalf("/metrics missing singleflight counter:\n%s", metricsBody)
	}
}
