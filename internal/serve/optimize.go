package serve

import (
	"net/http"
	"strings"

	"vppb/internal/analysis"
	"vppb/internal/hb"
	"vppb/internal/sched"
	"vppb/internal/trace"
)

// POST /v1/optimize answers "what should I deploy on?" in one call: it
// sweeps every (policy × CPU count) configuration of a grid over the
// uploaded recording and returns the ranked outcome. The sweep skips
// configurations whose happens-before lower bound already loses to the
// incumbent, so a full grid typically costs a fraction of the naive
// per-configuration predictions.
//
//	POST /v1/optimize?cpus=1,2,4,8&policies=ts,rr,fifo
//	                  (?trace=<digest> ?strict=true ?exhaustive=true)
//
// ?exhaustive=true disables pruning — every candidate is simulated. The
// winner is identical by construction; the flag exists so clients (and
// the CI smoke gate) can verify that claim differentially.

// optimizeResponse is the deterministic JSON body of /v1/optimize.
type optimizeResponse struct {
	Trace         string `json:"trace"`
	Program       string `json:"program"`
	RecordedUS    int64  `json:"recorded_us"`
	Repaired      bool   `json:"repaired"`
	RepairSummary string `json:"repair_summary,omitempty"`
	// Durations inside are virtual microseconds, like predicted_us.
	*analysis.OptimizeResult
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, errf(http.StatusMethodNotAllowed, "POST a recorded log (or POST with ?trace=<digest>)"))
	}
	strict, herr := parseStrict(r)
	if herr != nil {
		return writeError(w, herr)
	}
	cpus, herr := parseCPUList(r)
	if herr != nil {
		return writeError(w, herr)
	}
	policies, herr := parsePolicyList(r)
	if herr != nil {
		return writeError(w, herr)
	}
	exhaustive, herr := parseBoolParam(r, "exhaustive")
	if herr != nil {
		return writeError(w, herr)
	}
	e, log, cached, herr := s.resolveEntry(w, r, strict)
	if herr != nil {
		return writeError(w, herr)
	}
	hbA := s.pruning(e, log)

	// The remaining deadline becomes a per-candidate event budget, exactly
	// like /v1/predict.
	base, deadlineBudget := s.machineFor(r.Context(), "")
	opts := analysis.OptimizeOptions{
		CPUCounts:    cpus,
		Policies:     policies,
		Exhaustive:   exhaustive,
		MaxSimEvents: base.MaxSimEvents,
	}

	var res *analysis.OptimizeResult
	herr = s.replay(e, len(cpus)*len(policies), deadlineBudget, func() (err error) {
		res, err = analysis.Optimize(r.Context(), e.Profile, hbA, opts)
		return err
	})
	if herr != nil {
		return writeError(w, herr)
	}
	s.metrics.OptimizeSimulated().Add(int64(res.Simulated))
	s.metrics.OptimizeReused().Add(int64(res.Reused))
	s.metrics.OptimizePruned().Add(int64(res.Pruned))

	entryHeaders(w, e, cached)
	return writeJSON(w, optimizeResponse{
		Trace:          e.Digest,
		Program:        e.Profile.Header.Program,
		RecordedUS:     int64(e.Profile.Duration()),
		Repaired:       e.Repaired,
		RepairSummary:  e.RepairSummary,
		OptimizeResult: res,
	})
}

// pruning returns the bounds the sweep prunes with: Work and
// SerialDemand from the entry's first happens-before analysis, which runs
// here if none has, on log (the Log this request decoded, or nil to
// rebuild it). A log the analysis cannot handle, or one that cannot be
// rebuilt, degrades to an unpruned (but still prefix-shared) sweep rather
// than failing the request.
func (s *Server) pruning(e *Entry, log *trace.Log) *hb.Analysis {
	e.hbMu.Lock()
	defer e.hbMu.Unlock()
	if !e.hbDone {
		if log == nil {
			var herr *httpError
			if log, herr = s.rebuildLog(e); herr != nil {
				return nil
			}
		}
		e.setHB(hb.Analyze(log))
	}
	if !e.hbOK {
		return nil
	}
	// Optimize reads no other field of the analysis.
	return &hb.Analysis{Work: e.work, SerialDemand: e.serialDemand}
}

// parsePolicyList parses ?policies=a,b,c; empty means every registered
// policy.
func parsePolicyList(r *http.Request) ([]string, *httpError) {
	spec := r.URL.Query().Get("policies")
	if spec == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if _, err := sched.New(name); err != nil {
			return nil, errf(http.StatusBadRequest, "policies: %v", err)
		}
		if name == "" {
			name = sched.Default
		}
		out = append(out, name)
	}
	return out, nil
}

// parseBoolParam parses an optional boolean query parameter.
func parseBoolParam(r *http.Request, name string) (bool, *httpError) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false, nil
	}
	switch v {
	case "1", "t", "true", "T", "TRUE", "True":
		return true, nil
	case "0", "f", "false", "F", "FALSE", "False":
		return false, nil
	}
	return false, errf(http.StatusBadRequest, "%s wants a boolean, got %q", name, v)
}
