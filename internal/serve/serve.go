// Package serve turns the VPPB pipeline — repair, profile, simulate,
// bounds, visualize — into a long-lived prediction service. Where the CLIs
// re-read, re-repair and re-profile a trace on every invocation, the
// daemon ingests a trace once, addresses it by the SHA-256 of its bytes,
// and keeps the immutable behaviour profile in an LRU cache so a repeated
// trace goes straight to simulation.
//
// Endpoints:
//
//	POST /v1/predict      trace upload -> per-machine-size predictions
//	                      (?cpus=1,2,4,8 ?policy=ts ?strict=true),
//	                      or ?trace=<digest> to reuse an uploaded trace
//	POST /v1/optimize     rank every (policy x CPU) configuration; the
//	                      sweep prunes by the happens-before bound
//	                      (?cpus= ?policies= ?exhaustive=true for the
//	                      naive baseline)
//	GET  /v1/bounds       critical-path speed-up bound  (?trace= or POST body)
//	GET  /v1/lockorder    lock-order cycles / potential deadlocks
//	GET  /v1/view.svg     predicted-execution rendering (?cpus=N ?width=)
//	GET  /v1/view.html    self-contained HTML report
//	GET  /metrics         Prometheus text format
//	GET  /healthz         readiness probe
//	     /debug/pprof/*   Go profiling
//
// The ingestion path applies the CLIs' repair policy, ingest.Prepare: a
// structurally corrupt upload is repaired automatically (the response
// carries the repair summary) unless ?strict=true, which rejects it with
// 422. Request bodies are size-limited, every request runs under a
// deadline, and the remaining deadline is translated into the simulator's
// event budget so a runaway replay of a pathological trace cannot pin a
// worker forever.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"vppb/internal/core"
	"vppb/internal/hb"
	"vppb/internal/ingest"
	"vppb/internal/metrics"
	"vppb/internal/sched"
	"vppb/internal/trace"
	"vppb/internal/viz"
	"vppb/internal/vtime"
)

// Config sizes the daemon.
type Config struct {
	// CacheEntries caps the profile cache (0 = DefaultCacheEntries).
	CacheEntries int
	// MaxBodyBytes limits uploaded trace size (0 = 32 MiB).
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline (0 = 30s; negative =
	// none). Clients cannot extend it, only the operator can.
	RequestTimeout time.Duration
	// MaxSimEvents bounds every simulation run for a request, exactly like
	// vppb-sim -max-events (0 = derive from the deadline only).
	MaxSimEvents int64
	// MaxVirtualTime bounds simulated time, like vppb-sim -max-vtime
	// (0 = unlimited).
	MaxVirtualTime vtime.Duration
	// SimEventsPerSecond calibrates the deadline-to-budget mapping: with a
	// deadline D remaining, a simulation may place at most
	// D * SimEventsPerSecond events before it is aborted. 0 selects
	// DefaultSimEventsPerSecond; negative disables the mapping.
	SimEventsPerSecond int64
	// StoreDir roots the durable content-addressed store. Empty keeps the
	// daemon memory-only: a restart forgets every uploaded trace.
	StoreDir string
	// MaxInflight caps simulation-heavy requests running at once
	// (0 = DefaultMaxInflight; negative = unlimited). Requests beyond the
	// cap wait briefly, then are shed with 503 + Retry-After.
	MaxInflight int
	// AdmissionWait bounds how long an over-cap request queues for a slot
	// before being shed (0 = DefaultAdmissionWait; negative = shed
	// immediately). The request deadline bounds the wait further.
	AdmissionWait time.Duration
}

// Defaults for the zero Config.
const (
	DefaultMaxBodyBytes       = 32 << 20
	DefaultRequestTimeout     = 30 * time.Second
	DefaultSimEventsPerSecond = 2_000_000
	DefaultMaxInflight        = 64
	DefaultAdmissionWait      = 100 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	switch {
	case c.RequestTimeout == 0:
		c.RequestTimeout = DefaultRequestTimeout
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0
	}
	switch {
	case c.SimEventsPerSecond == 0:
		c.SimEventsPerSecond = DefaultSimEventsPerSecond
	case c.SimEventsPerSecond < 0:
		c.SimEventsPerSecond = 0
	}
	switch {
	case c.MaxInflight == 0:
		c.MaxInflight = DefaultMaxInflight
	case c.MaxInflight < 0:
		c.MaxInflight = 0
	}
	switch {
	case c.AdmissionWait == 0:
		c.AdmissionWait = DefaultAdmissionWait
	case c.AdmissionWait < 0:
		c.AdmissionWait = 0
	}
	return c
}

// Server is the prediction service: a profile cache over an optional
// durable store, admission control, a metrics registry, and the HTTP
// handlers. Create one with New and mount Handler on an http.Server.
type Server struct {
	cfg      Config
	cache    *Cache
	store    *Store // nil when Config.StoreDir is empty
	metrics  *Metrics
	adm      *admission // nil when inflight is unlimited
	breakers *breakerSet
	flights  *flightGroup
	mux      *http.ServeMux

	// onSimulate, when set, runs inside every singleflight leader just
	// before it simulates — a test hook for observing (and delaying) the
	// one simulation N collapsed requests share. It receives the leader's
	// request context so a test can park a leader until that request dies.
	onSimulate func(context.Context)
	// onDecode, when set, runs before every decode of trace bytes: a
	// fresh upload, a fault-in or a Log rebuilt for the hb reports.
	onDecode func()
	// middleware, when set, wraps every routed handler inside the
	// admission and panic-recovery layers, so a test can stall or break a
	// request where the daemon's own robustness code sees it. A panicking
	// middleware is recovered, counted in vppb_panics_total and answered
	// with 500 like any handler panic.
	middleware func(http.Handler) http.Handler
}

// New creates a Server. With a StoreDir configured it opens the durable
// store and runs the startup recovery scan (re-verifying every on-disk
// entry and quarantining corrupt ones) before serving; a store root that
// cannot be created or written is an error, because running without the
// durability the operator asked for would be silent data loss.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:     cfg.withDefaults(),
		cache:   NewCache(cfg.CacheEntries),
		metrics: NewMetrics(),
	}
	s.adm = newAdmission(s.cfg.MaxInflight, s.cfg.AdmissionWait)
	s.breakers = newBreakerSet()
	s.flights = newFlightGroup(func() { s.metrics.SingleflightShared().Add(1) })
	if s.cfg.StoreDir != "" {
		store, err := OpenStore(s.cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		if _, err := store.Recover(); err != nil {
			return nil, err
		}
		s.store = store
		// Fault-ins re-run the lenient ingestion pipeline: the store holds
		// the original upload bytes, so the repair verdict (and therefore
		// strict-mode rejection) is recomputed identically after a restart.
		s.cache.AttachStore(store, func(digest string, raw []byte) (*Entry, *trace.Log, error) {
			e, log, herr := s.ingest(digest, raw, false)
			if herr != nil {
				return nil, nil, herr
			}
			return e, log, nil
		})
	}
	s.mux = http.NewServeMux()
	// Trace-addressed routes are admission-gated; observability routes
	// are not, so the daemon stays observable under overload.
	s.route("/v1/predict", true, s.handlePredict)
	s.route("/v1/optimize", true, s.handleOptimize)
	s.route("/v1/bounds", true, s.handleBounds)
	s.route("/v1/lockorder", true, s.handleLockOrder)
	s.route("/v1/view.svg", true, s.handleViewSVG)
	s.route("/v1/view.html", true, s.handleViewHTML)
	s.route("/metrics", false, s.handleMetrics)
	s.route("/healthz", false, s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the profile cache (for tests and operational tooling).
func (s *Server) Cache() *Cache { return s.cache }

// Store exposes the durable store, or nil for a memory-only daemon.
func (s *Server) Store() *Store { return s.store }

// Metrics exposes the metrics registry (for tests and the benchmark).
func (s *Server) Metrics() *Metrics { return s.metrics }

// route mounts a handler behind the robustness and instrumentation
// middleware: inflight gauge, per-request deadline, admission control on
// simulation-heavy routes (gated), panic recovery, the optional test
// middleware, latency histogram, and the per-route request counter
// labelled with the route pattern (not the raw URL, which would explode
// the label cardinality). Ungated routes (/metrics, /healthz) skip
// admission so the daemon stays observable under overload.
func (s *Server) route(pattern string, gated bool, h func(http.ResponseWriter, *http.Request) int) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Inflight().Add(1)
		defer s.metrics.Inflight().Add(-1)
		start := time.Now()
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		if gated && s.adm != nil {
			release, ok := s.adm.acquire(ctx)
			if !ok {
				s.metrics.Shed().Add(1)
				code := writeError(w, errShed(http.StatusServiceUnavailable,
					"server at capacity (%d requests in flight); retry after backoff", s.cfg.MaxInflight))
				s.metrics.ObserveRequest(pattern, code, time.Since(start).Seconds())
				return
			}
			defer release()
		}
		var code int
		var inner http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			code = h(w, r)
		})
		if s.middleware != nil {
			inner = s.middleware(inner)
		}
		func() {
			// A panicking handler must cost one request, not the process:
			// convert it to a 500 and count it. If the handler already
			// started the response the error write is best-effort, but the
			// connection still closes instead of the daemon.
			defer func() {
				if p := recover(); p != nil {
					s.metrics.Panics().Add(1)
					code = writeError(w, errf(http.StatusInternalServerError, "internal error: handler panicked: %v", p))
				}
			}()
			inner.ServeHTTP(w, r.WithContext(ctx))
		}()
		s.metrics.ObserveRequest(pattern, code, time.Since(start).Seconds())
	})
}

// httpError is a handler failure with its HTTP status. retryAfterSec > 0
// stamps a Retry-After header: the server's promise that the request may
// succeed if a client waits that long before sending it again.
type httpError struct {
	code          int
	msg           string
	retryAfterSec int
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errShed is errf plus a one-second Retry-After, for load-shedding and
// breaker rejections.
func errShed(code int, format string, args ...any) *httpError {
	e := errf(code, format, args...)
	e.retryAfterSec = 1
	return e
}

// writeError emits the {"error": ...} body and returns the status code for
// the request counter.
func writeError(w http.ResponseWriter, e *httpError) int {
	w.Header().Set("Content-Type", "application/json")
	if e.retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfterSec))
	}
	w.WriteHeader(e.code)
	body, _ := json.Marshal(map[string]string{"error": e.msg})
	w.Write(append(body, '\n'))
	return e.code
}

// simError maps a simulation or analysis failure to an HTTP status: a
// blown deadline is 504, everything else (deadlocked replay, exhausted
// operator-configured budget, unprofilable recording) is the client's
// trace and gets 422.
func simError(err error) *httpError {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return deadlineExceededError()
	}
	return errf(http.StatusUnprocessableEntity, "%v", err)
}

// deadlineExceededError is the one 504 body every deadline path produces
// — the direct simulation path, a singleflight follower whose context
// expires while waiting, and a deadline-derived budget exhaustion must
// all be indistinguishable to the client.
func deadlineExceededError() *httpError {
	return errf(http.StatusGatewayTimeout, "deadline exceeded before all simulations finished")
}

// mapSimFailure is simError plus the deadline-derived budget case: when
// the event budget that blew was computed from the request's remaining
// deadline (not configured by the operator), the honest verdict is "you
// ran out of time" (504), not "your trace is unprocessable" (422) — the
// same recording simulates fine under a healthier deadline.
func mapSimFailure(err error, deadlineBudget bool) *httpError {
	var be *core.BudgetError
	if deadlineBudget && errors.As(err, &be) && be.Kind == "events" {
		return deadlineExceededError()
	}
	return simError(err)
}

// resolveEntry produces the cached entry for a request: via ?trace=digest
// for a previously ingested recording (from memory or faulted back in
// from the durable store), or by ingesting the request body. When the
// request decoded the trace (an upload or a fault-in) it also returns
// that Log, so a route that reads events never decodes twice; on a memory
// hit the Log is nil. The boolean reports whether the server already had
// the trace — the client did not have to upload it.
func (s *Server) resolveEntry(w http.ResponseWriter, r *http.Request, strict bool) (*Entry, *trace.Log, bool, *httpError) {
	if digest := r.URL.Query().Get("trace"); digest != "" {
		e, log, ok := s.cache.Load(digest)
		if !ok {
			return nil, nil, false, errf(http.StatusNotFound, "unknown trace digest %s (upload it first)", digest)
		}
		if strict && e.Repaired {
			return nil, nil, false, errf(http.StatusUnprocessableEntity, "trace %s required repair (%s) and strict=true refuses repaired input", digest, e.RepairSummary)
		}
		return e, log, true, nil
	}

	raw, herr := readBody(w, r, s.cfg.MaxBodyBytes)
	if herr != nil {
		return nil, nil, false, herr
	}
	if len(raw) == 0 {
		return nil, nil, false, errf(http.StatusBadRequest, "upload a recorded log in the request body or pass ?trace=<digest>")
	}

	digest := Digest(raw)
	if e, ok := s.cache.Get(digest); ok {
		if strict && e.Repaired {
			return nil, nil, false, errf(http.StatusUnprocessableEntity, "corrupt log rejected by strict=true (would be repaired: %s)", e.RepairSummary)
		}
		return e, nil, true, nil
	}

	e, log, herr := s.ingest(digest, raw, strict)
	if herr != nil {
		return nil, nil, false, herr
	}
	// Persist before publishing: when the response reaches the client the
	// upload has survived the daemon. A failed durability write degrades
	// to memory-only service for this entry — counted, never fatal. An
	// entry whose bytes the store does not hold keeps a binary copy of
	// its log for the hb reports to rebuild from.
	stored := false
	if s.store != nil {
		if err := s.store.Put(digest, raw); err != nil {
			s.store.notePutError()
		} else {
			stored = true
		}
	}
	if !stored {
		e.binary = binaryCopy(raw, log, e.Repaired)
	}
	return s.cache.Add(e), log, false, nil
}

// binaryCopy returns a VPPBLOG1 encoding of log, the ingested form of
// raw: raw itself when it is one already.
func binaryCopy(raw []byte, log *trace.Log, repaired bool) []byte {
	if !repaired && trace.IsBinary(raw) {
		return raw
	}
	return trace.AppendBinary(nil, log)
}

// rebuildLog decodes a cached entry's Log again for the hb reports, the
// only readers of its events: from the entry's binary copy, which holds
// the ingested log, or from the store's verified bytes, the upload as it
// came. The entry already records the repair verdict on those bytes, so
// a repaired entry's Log is repaired again, and no profile is built.
func (s *Server) rebuildLog(e *Entry) (*trace.Log, *httpError) {
	raw, repair := e.binary, false
	if raw == nil {
		if s.store == nil {
			return nil, errf(http.StatusInternalServerError, "internal error: trace %s has no bytes to rebuild its log from", e.Digest)
		}
		var err error
		if raw, err = s.store.Get(e.Digest); err != nil {
			// The bytes are gone (Get quarantined them if corrupt): forget
			// the entry too, so that an upload of them ingests and stores
			// afresh.
			s.cache.Remove(e.Digest)
			return nil, errf(http.StatusNotFound, "trace %s: its stored bytes are unreadable (upload it again): %v", e.Digest, err)
		}
		repair = e.Repaired
	}
	log, err := s.decode(raw, ingest.FormatAuto)
	if err == nil && repair {
		log, _, err = trace.Repair(log)
	}
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "internal error: trace %s: rebuilding its log: %v", e.Digest, err)
	}
	return log, nil
}

// decode is ingest.Decode, run for every upload, fault-in and rebuild.
func (s *Server) decode(raw []byte, format string) (*trace.Log, error) {
	if s.onDecode != nil {
		s.onDecode()
	}
	return ingest.Decode(raw, format, "")
}

// readBody reads a request body under the upload size limit, mapping the
// oversize and transport failures exactly like the ingestion path. A body
// that declares its length within the limit is read into one buffer of
// that size; a chunked body, or one declared too large, grows its buffer
// until the limit stops it.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *httpError) {
	body := http.MaxBytesReader(w, r.Body, limit)
	var raw []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= limit {
		raw = make([]byte, n)
		_, err = io.ReadFull(body, raw)
	} else {
		raw, err = io.ReadAll(body)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(http.StatusRequestEntityTooLarge, "trace exceeds the %d-byte upload limit", tooBig.Limit)
		}
		return nil, errf(http.StatusBadRequest, "reading request body: %v", err)
	}
	return raw, nil
}

// ingest runs the upload pipeline on raw bytes: sniff and decode, then
// ingest.Prepare's validate, repair (unless strict) and profile. It is shared
// by fresh uploads and durable-store fault-ins, so an entry rebuilt after
// a restart gets the exact same repair verdict as the original upload.
// digest is Digest(raw), which every caller has already computed. It
// returns the entry and the (repaired) Log it was built from.
func (s *Server) ingest(digest string, raw []byte, strict bool) (*Entry, *trace.Log, *httpError) {
	// The format is sniffed from the bytes themselves: native vppb
	// recordings and Go runtime execution traces are both accepted, and
	// anything else is a 400 counted per format in the ingest-error metric.
	// The digest is always computed over the raw uploaded bytes, so
	// content addressing, durability and replay-by-digest are format-blind.
	format := ingest.Detect(raw)
	if format == "" {
		s.metrics.IngestError("unknown")
		return nil, nil, errf(http.StatusBadRequest, "unrecognized trace format: want a vppb log or a Go execution trace")
	}
	log, err := s.decode(raw, format)
	if err != nil {
		s.metrics.IngestError(format)
		return nil, nil, errf(http.StatusBadRequest, "invalid %s trace: %v", format, err)
	}
	p, err := ingest.Prepare(log, strict)
	var verr *trace.ValidationError
	var uerr *trace.UnrecoverableError
	switch {
	case errors.As(err, &verr):
		return nil, nil, errf(http.StatusUnprocessableEntity, "corrupt log rejected by strict=true: %v", verr)
	case errors.As(err, &uerr):
		return nil, nil, errf(http.StatusUnprocessableEntity, "unrecoverable log: %v", uerr)
	case err != nil:
		return nil, nil, errf(http.StatusUnprocessableEntity, "%v", err)
	}
	e := &Entry{Digest: digest, Size: len(raw), Profile: p.Profile}
	if p.Repair != nil {
		e.Repaired = true
		e.RepairSummary = p.Repair.Summary()
	}
	return e, p.Log, nil
}

// machineFor builds the base machine of a request: the policy, the
// operator-configured budgets, and the remaining request deadline mapped
// to an event budget (remaining seconds x SimEventsPerSecond). Simulated
// virtual time is decoupled from wall time, so the event budget — not a
// wall-clock check — is what actually stops a runaway replay.
//
// The boolean reports whether the effective event budget came from the
// deadline rather than the operator's MaxSimEvents. The distinction
// decides the failure's HTTP status: exhausting a deadline-derived budget
// means the request ran out of time (504), exhausting an operator budget
// means the trace is too big for this deployment (422).
func (s *Server) machineFor(ctx context.Context, policy string) (core.Machine, bool) {
	m := core.Machine{
		Policy:         policy,
		MaxSimEvents:   s.cfg.MaxSimEvents,
		MaxVirtualTime: s.cfg.MaxVirtualTime,
	}
	deadlineBudget := false
	if deadline, ok := ctx.Deadline(); ok && s.cfg.SimEventsPerSecond > 0 {
		remaining := time.Until(deadline).Seconds()
		if remaining < 0 {
			remaining = 0
		}
		derived := int64(remaining*float64(s.cfg.SimEventsPerSecond)) + 1
		if m.MaxSimEvents == 0 || derived < m.MaxSimEvents {
			m.MaxSimEvents = derived
			deadlineBudget = true
		}
	}
	return m, deadlineBudget
}

// simulateAll fans the machines out over the bounded worker pool.
func (s *Server) simulateAll(ctx context.Context, e *Entry, machines []core.Machine, deadlineBudget bool) ([]*core.Result, *httpError) {
	var results []*core.Result
	herr := s.replay(e, len(machines), deadlineBudget, func() (err error) {
		results, err = core.SimulateManyCtx(ctx, e.Profile, machines)
		return err
	})
	return results, herr
}

// replay runs sim, a request's n simulations of e, keeping the
// simulation queue-depth gauge current. It consults the per-digest
// circuit breaker first: a trace whose replays keep failing fast-fails
// with 503 until the cooldown admits a probe, so one poisonous digest
// cannot repeatedly burn full event budgets.
func (s *Server) replay(e *Entry, n int, deadlineBudget bool, sim func() error) *httpError {
	if !s.breakers.allow(e.Digest) {
		return errShed(http.StatusServiceUnavailable,
			"circuit breaker open for trace %s after repeated simulation failures; retry later", e.Digest)
	}
	s.metrics.SimQueue().Add(int64(n))
	defer s.metrics.SimQueue().Add(-int64(n))
	err := sim()
	s.breakers.record(e.Digest, err == nil)
	if err != nil {
		return mapSimFailure(err, deadlineBudget)
	}
	return nil
}

// Query-parameter parsing, mirroring the CLI contract.

func parseStrict(r *http.Request) (bool, *httpError) {
	v := r.URL.Query().Get("strict")
	if v == "" {
		return false, nil
	}
	strict, err := strconv.ParseBool(v)
	if err != nil {
		return false, errf(http.StatusBadRequest, "strict wants a boolean, got %q", v)
	}
	return strict, nil
}

func parsePolicy(r *http.Request) (string, *httpError) {
	policy := r.URL.Query().Get("policy")
	if _, err := sched.New(policy); err != nil {
		return "", errf(http.StatusBadRequest, "policy: %v", err)
	}
	return policy, nil
}

func parseCPUList(r *http.Request) ([]int, *httpError) {
	spec := r.URL.Query().Get("cpus")
	if spec == "" {
		spec = "1,2,4,8"
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, errf(http.StatusBadRequest, "cpus wants positive CPU counts, got %q", part)
		}
		if herr := checkCPUs(n); herr != nil {
			return nil, herr
		}
		out = append(out, n)
	}
	return out, nil
}

// checkCPUs rejects a machine size the simulator would refuse, before any
// trace is resolved or simulated.
func checkCPUs(n int) *httpError {
	if n > core.MaxCPUs {
		return errf(http.StatusBadRequest, "cpus allows at most %d CPUs per machine, got %d", core.MaxCPUs, n)
	}
	return nil
}

func parseInt(r *http.Request, name string, def, min int) (int, *httpError) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min {
		return 0, errf(http.StatusBadRequest, "%s wants an integer >= %d, got %q", name, min, v)
	}
	return n, nil
}

// entryHeaders stamps the content address and cache verdict on a
// response. The verdict lives in a header, not the body, so repeated
// requests stay byte-identical.
func entryHeaders(w http.ResponseWriter, e *Entry, cached bool) {
	w.Header().Set("X-Vppb-Trace", e.Digest)
	if cached {
		w.Header().Set("X-Vppb-Cache", "hit")
	} else {
		w.Header().Set("X-Vppb-Cache", "miss")
	}
}

func writeJSON(w http.ResponseWriter, v any) int {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return writeError(w, errf(http.StatusInternalServerError, "encoding response: %v", err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
	return http.StatusOK
}

// jsonFloat marshals NaN (a degenerate speed-up, see metrics.Speedup) as
// null instead of failing the whole encode.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// predictResponse is the deterministic JSON body of /v1/predict.
type predictResponse struct {
	Trace         string       `json:"trace"`
	Program       string       `json:"program"`
	RecordedUS    int64        `json:"recorded_us"`
	Policy        string       `json:"policy"`
	Repaired      bool         `json:"repaired"`
	RepairSummary string       `json:"repair_summary,omitempty"`
	Predictions   []prediction `json:"predictions"`
}

type prediction struct {
	CPUs        int       `json:"cpus"`
	PredictedUS int64     `json:"predicted_us"`
	Speedup     jsonFloat `json:"speedup"`
	Events      int64     `json:"events"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, errf(http.StatusMethodNotAllowed, "POST a recorded log (or POST with ?trace=<digest>)"))
	}
	strict, herr := parseStrict(r)
	if herr != nil {
		return writeError(w, herr)
	}
	policy, herr := parsePolicy(r)
	if herr != nil {
		return writeError(w, herr)
	}
	sizes, herr := parseCPUList(r)
	if herr != nil {
		return writeError(w, herr)
	}
	e, _, cached, herr := s.resolveEntry(w, r, strict)
	if herr != nil {
		return writeError(w, herr)
	}

	resolved := policy
	if resolved == "" {
		resolved = sched.Default
	}
	// Concurrent identical requests (same trace, policy and CPU grid)
	// collapse into one simulation; followers share the leader's response.
	key := flightKey(e.Digest, resolved, sizes)
	resp, herr, _ := s.flights.do(r.Context(), key, func() (*predictResponse, *httpError) {
		return s.predict(r.Context(), e, resolved, policy, sizes)
	})
	if herr != nil {
		return writeError(w, herr)
	}
	entryHeaders(w, e, cached)
	return writeJSON(w, resp)
}

// flightKey identifies a prediction for singleflight collapsing.
func flightKey(digest, policy string, sizes []int) string {
	var b strings.Builder
	b.WriteString(digest)
	b.WriteByte('|')
	b.WriteString(policy)
	for _, c := range sizes {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// predict runs the simulations of one /v1/predict request and assembles
// the response body — the work a singleflight leader does once for every
// collapsed request.
func (s *Server) predict(ctx context.Context, e *Entry, resolved, policy string, sizes []int) (*predictResponse, *httpError) {
	if s.onSimulate != nil {
		s.onSimulate(ctx)
	}
	// Machine 0 is the uniprocessor baseline every speed-up divides by;
	// the requested sizes follow in input order. The body carries
	// durations and event counts only, so no replay builds a timeline.
	base, deadlineBudget := s.machineFor(ctx, policy)
	base.DiscardTimeline = true
	machines := make([]core.Machine, 0, len(sizes)+1)
	machines = append(machines, base.Uniprocessor())
	for _, cpus := range sizes {
		m := base
		m.CPUs = cpus
		machines = append(machines, m)
	}
	results, herr := s.simulateAll(ctx, e, machines, deadlineBudget)
	if herr != nil {
		return nil, herr
	}
	uni := results[0]

	resp := &predictResponse{
		Trace:         e.Digest,
		Program:       e.Profile.Header.Program,
		RecordedUS:    int64(e.Profile.Duration()),
		Policy:        resolved,
		Repaired:      e.Repaired,
		RepairSummary: e.RepairSummary,
		Predictions:   make([]prediction, 0, len(sizes)),
	}
	for i, cpus := range sizes {
		res := results[i+1]
		resp.Predictions = append(resp.Predictions, prediction{
			CPUs:        cpus,
			PredictedUS: int64(res.Duration),
			Speedup:     jsonFloat(metrics.Speedup(uni.Duration, res.Duration)),
			Events:      res.Events,
		})
	}
	return resp, nil
}

func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) int {
	return s.handleHB(w, r, func(a *hb.Analysis, topN int) any { return a.JSONBounds(topN) })
}

func (s *Server) handleLockOrder(w http.ResponseWriter, r *http.Request) int {
	return s.handleHB(w, r, func(a *hb.Analysis, _ int) any { return a.JSONLockOrder() })
}

// handleHB analyzes the request's Log: the one it decoded, or one rebuilt
// for a cached entry. The analysis is not kept, except for the two
// numbers /v1/optimize prunes with.
func (s *Server) handleHB(w http.ResponseWriter, r *http.Request, report func(*hb.Analysis, int) any) int {
	strict, herr := parseStrict(r)
	if herr != nil {
		return writeError(w, herr)
	}
	topN, herr := parseInt(r, "top", 10, 1)
	if herr != nil {
		return writeError(w, herr)
	}
	e, log, cached, herr := s.resolveEntry(w, r, strict)
	if herr != nil {
		return writeError(w, herr)
	}
	if log == nil {
		if log, herr = s.rebuildLog(e); herr != nil {
			return writeError(w, herr)
		}
	}
	a, err := hb.Analyze(log)
	e.hbMu.Lock()
	e.setHB(a, err)
	e.hbMu.Unlock()
	if err != nil {
		return writeError(w, simError(err))
	}
	entryHeaders(w, e, cached)
	return writeJSON(w, report(a, topN))
}

func (s *Server) handleViewSVG(w http.ResponseWriter, r *http.Request) int {
	return s.handleView(w, r, "image/svg+xml", func(v *viz.View, title string, width int) (string, error) {
		return viz.RenderSVG(v, viz.SVGOptions{Title: title, Width: width}), nil
	})
}

func (s *Server) handleViewHTML(w http.ResponseWriter, r *http.Request) int {
	return s.handleView(w, r, "text/html; charset=utf-8", func(v *viz.View, title string, _ int) (string, error) {
		return viz.RenderHTML(v, viz.HTMLOptions{Title: title})
	})
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request, contentType string, render func(*viz.View, string, int) (string, error)) int {
	strict, herr := parseStrict(r)
	if herr != nil {
		return writeError(w, herr)
	}
	policy, herr := parsePolicy(r)
	if herr != nil {
		return writeError(w, herr)
	}
	cpus, herr := parseInt(r, "cpus", 2, 1)
	if herr == nil {
		herr = checkCPUs(cpus)
	}
	if herr != nil {
		return writeError(w, herr)
	}
	width, herr := parseInt(r, "width", 0, 1)
	if herr != nil {
		return writeError(w, herr)
	}
	e, _, cached, herr := s.resolveEntry(w, r, strict)
	if herr != nil {
		return writeError(w, herr)
	}
	m, deadlineBudget := s.machineFor(r.Context(), policy)
	m.CPUs = cpus
	results, herr := s.simulateAll(r.Context(), e, []core.Machine{m}, deadlineBudget)
	if herr != nil {
		return writeError(w, herr)
	}
	view, err := viz.NewView(results[0].Timeline)
	if err != nil {
		return writeError(w, errf(http.StatusInternalServerError, "%v", err))
	}
	title := fmt.Sprintf("%s on %d simulated CPUs", e.Profile.Header.Program, cpus)
	doc, err := render(view, title, width)
	if err != nil {
		return writeError(w, errf(http.StatusInternalServerError, "%v", err))
	}
	entryHeaders(w, e, cached)
	w.Header().Set("Content-Type", contentType)
	io.WriteString(w, doc)
	return http.StatusOK
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, s.cache, s.store, s.breakers.tripsTotal())
	return http.StatusOK
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
	return http.StatusOK
}
