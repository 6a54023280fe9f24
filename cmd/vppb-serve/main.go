// Command vppb-serve runs the VPPB prediction pipeline as a long-lived
// HTTP daemon: upload a recorded log once, get predictions, speed-up
// bounds, deadlock analyses and renderings from the content-addressed
// profile cache on every later request.
//
// Usage:
//
//	vppb-serve -addr :8077
//	vppb-serve -addr 127.0.0.1:8077 -cache-entries 256 -timeout 10s
//	vppb-serve -max-body 8388608 -max-events 50000000
//	vppb-serve -store-dir /var/lib/vppb -max-inflight 32
//
// With -store-dir every accepted upload is persisted (temp file + fsync +
// atomic rename, keyed by SHA-256) and re-verified on read, so
// ?trace=<digest> replay survives daemon restarts; corrupt store files
// are quarantined, never served. -max-inflight bounds concurrent
// simulation requests — beyond it requests queue briefly, then are shed
// with 503 + Retry-After.
//
// Endpoints (see the serve package for details):
//
//	POST /v1/predict?cpus=1,2,4,8&policy=ts&strict=false
//	GET  /v1/bounds?trace=<digest>     GET /v1/lockorder?trace=<digest>
//	GET  /v1/view.svg?trace=<digest>   GET /v1/view.html?trace=<digest>
//	GET  /metrics                      GET /healthz
//	     /debug/pprof/
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains
// in-flight simulations for up to -drain before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vppb"
	"vppb/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "vppb-serve:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks an invocation mistake (as opposed to a runtime
// failure): the process exits with status 2, the conventional
// bad-command-line code.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// exitCode maps an error from run to a process exit status.
func exitCode(err error) int {
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// run starts the daemon and blocks until the listener fails or ctx-level
// shutdown completes. When ready is non-nil, the bound address is sent on
// it once the listener is up (tests use this to avoid port races).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("vppb-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8077", "listen address")
		cacheEntries = fs.Int("cache-entries", serve.DefaultCacheEntries, "profile cache capacity (content-addressed LRU entries)")
		maxBody      = fs.Int64("max-body", serve.DefaultMaxBodyBytes, "largest accepted trace upload in bytes")
		timeout      = fs.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline (0 = none)")
		drain        = fs.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight requests")
		maxEvents    = fs.Int64("max-events", 0, "per-simulation event budget, like vppb-sim -max-events (0 = deadline-derived only)")
		maxVtime     = fs.Int64("max-vtime", 0, "per-simulation virtual-time budget in microseconds (0 = unlimited)")
		eventsPerSec = fs.Int64("sim-events-per-sec", serve.DefaultSimEventsPerSecond, "deadline-to-budget calibration: events a worker is assumed to simulate per wall-clock second (<= 0 disables)")
		storeDir     = fs.String("store-dir", "", "durable content-addressed store directory; uploads survive restarts (empty = memory only)")
		maxInflight  = fs.Int("max-inflight", serve.DefaultMaxInflight, "concurrent simulation requests admitted before shedding with 503 (0 = unlimited)")
		admWait      = fs.Duration("admission-wait", serve.DefaultAdmissionWait, "how long an over-capacity request may queue for a slot before being shed (0 = shed immediately)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}
	if *cacheEntries < 1 {
		return usageError{fmt.Errorf("-cache-entries must be at least 1, got %d", *cacheEntries)}
	}
	if *maxBody < 1 {
		return usageError{fmt.Errorf("-max-body must be positive, got %d", *maxBody)}
	}
	if *timeout < 0 || *drain < 0 {
		return usageError{fmt.Errorf("-timeout and -drain must not be negative")}
	}
	if *maxInflight < 0 {
		return usageError{fmt.Errorf("-max-inflight must not be negative, got %d", *maxInflight)}
	}
	if *admWait < 0 {
		return usageError{fmt.Errorf("-admission-wait must not be negative, got %s", *admWait)}
	}
	cfg := serve.Config{
		CacheEntries:       *cacheEntries,
		MaxBodyBytes:       *maxBody,
		RequestTimeout:     *timeout,
		MaxSimEvents:       *maxEvents,
		MaxVirtualTime:     vppb.Duration(*maxVtime),
		SimEventsPerSecond: *eventsPerSec,
		StoreDir:           *storeDir,
		MaxInflight:        *maxInflight,
		AdmissionWait:      *admWait,
	}
	if *timeout == 0 {
		cfg.RequestTimeout = -1 // Config treats 0 as "default"; -1 disables.
	}
	if *eventsPerSec == 0 {
		cfg.SimEventsPerSecond = -1
	}
	if *maxInflight == 0 {
		cfg.MaxInflight = -1
	}
	if *admWait == 0 {
		cfg.AdmissionWait = -1
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err // e.g. an unwritable -store-dir: refuse to start, exit 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	durability := "memory-only"
	if *storeDir != "" {
		durability = fmt.Sprintf("store %s (%d entries recovered)", *storeDir, srv.Store().Len())
	}
	fmt.Fprintf(stderr, "vppb-serve: listening on %s (cache %d entries, timeout %s, %s)\n",
		ln.Addr(), *cacheEntries, *timeout, durability)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight simulations.
	fmt.Fprintf(stderr, "vppb-serve: shutting down (draining up to %s)\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(stderr, "vppb-serve: drained")
	return nil
}
