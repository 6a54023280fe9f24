// Package serveclient is the well-behaved client for vppb-serve: retries
// are safe by construction. Every trace is content-addressed, so the
// client can always try the cheap digest-only request first and fall back
// to (re-)uploading the bytes on 404 — re-sending is idempotent because
// the server keys everything by the SHA-256 of the payload. Transient
// failures (connection drops, 5xx, load shedding) are retried with capped
// exponential backoff plus seeded jitter, honoring the server's
// Retry-After header so a shedding daemon is never hammered harder.
//
// vppb-bench's chaos experiment and the serving tests drive all their
// traffic through this client; it is the reference for how a production
// caller should talk to the daemon.
package serveclient

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// Config tunes a Client. The zero value (plus a BaseURL) is usable.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTP is the underlying transport (nil = http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds tries per request, counting the first
	// (0 = DefaultMaxAttempts).
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per retry
	// (0 = DefaultBaseBackoff).
	BaseBackoff time.Duration
	// MaxBackoff caps the delay growth (0 = DefaultMaxBackoff).
	MaxBackoff time.Duration
	// Seed makes the jitter deterministic for tests and seeded chaos runs
	// (0 = 1).
	Seed int64
	// Sleep replaces time.Sleep in tests (nil = real sleeping, bounded by
	// the request context).
	Sleep func(time.Duration)
}

// Defaults for the zero Config.
const (
	DefaultMaxAttempts = 5
	DefaultBaseBackoff = 50 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
)

// Client retries requests against one vppb-serve daemon. Safe for
// concurrent use.
type Client struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
}

// ErrExhausted reports that every attempt failed; it wraps the last
// failure.
var ErrExhausted = errors.New("serveclient: retries exhausted")

// New creates a Client.
func New(cfg Config) *Client {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = DefaultBaseBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Digest is the content address the server will assign to raw: SHA-256,
// hex-encoded.
func Digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Result is the final outcome of a retried request.
type Result struct {
	// Status is the final HTTP status (200, or a non-retryable 4xx).
	Status int
	// Body is the final response body.
	Body []byte
	// Header is the final response header (X-Vppb-Cache, X-Vppb-Trace...).
	Header http.Header
	// Digest is the trace's content address.
	Digest string
	// Cache is the final X-Vppb-Cache verdict: "hit", "miss", or empty on
	// an error response.
	Cache string
	// Attempts counts HTTP round trips made, including digest-only probes.
	Attempts int
	// Uploads counts how many attempts carried the full trace body.
	Uploads int
	// Shed counts 503 responses absorbed by retrying (load shedding or a
	// tripped breaker on the server).
	Shed int
	// Retries counts backoff sleeps taken.
	Retries int
}

// Predict runs POST /v1/predict for raw with the extra query parameters
// (cpus, policy, strict...), retrying transient failures. It tries the
// digest-only form first — a warm server answers without the client
// re-sending the trace — and uploads the bytes on 404. The returned
// Result carries the final response; the error is non-nil only when the
// attempt budget ran out (wrapping ErrExhausted) or the context died.
func (c *Client) Predict(ctx context.Context, raw []byte, query url.Values) (*Result, error) {
	res := &Result{Digest: Digest(raw)}
	uploadNext := false // start with the cheap digest-only probe
	var lastErr error
	for res.Attempts < c.cfg.MaxAttempts {
		res.Attempts++
		status, body, header, err := c.post(ctx, raw, query, res, uploadNext)
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			lastErr = err // dropped connection, torn response: retry
		} else {
			res.Status, res.Body, res.Header = status, body, header
			res.Cache = header.Get("X-Vppb-Cache")
			switch {
			case status == http.StatusNotFound && !uploadNext:
				// The server has never seen (or has quarantined) this
				// digest; re-send the bytes. Immediate, not a failure.
				uploadNext = true
				continue
			case !retryable(status):
				return res, nil
			}
			if status == http.StatusServiceUnavailable {
				res.Shed++
			}
			lastErr = fmt.Errorf("server answered %d: %s", status, bytes.TrimSpace(body))
		}
		if res.Attempts >= c.cfg.MaxAttempts {
			break
		}
		res.Retries++
		if err := c.sleep(ctx, c.backoff(res.Retries, res.Header)); err != nil {
			return res, err
		}
	}
	return res, fmt.Errorf("%w after %d attempts: %v", ErrExhausted, res.Attempts, lastErr)
}

// post performs one HTTP round trip: digest-referencing (no body) unless
// upload is set.
func (c *Client) post(ctx context.Context, raw []byte, query url.Values, res *Result, upload bool) (int, []byte, http.Header, error) {
	q := url.Values{}
	for k, vs := range query {
		q[k] = vs
	}
	var body io.Reader
	if upload {
		res.Uploads++
		body = bytes.NewReader(raw)
	} else {
		q.Set("trace", res.Digest)
	}
	u := c.cfg.BaseURL + "/v1/predict"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	// Drain and close on every exit path, including read errors. A body
	// left undrained strands its keep-alive connection, and a retry loop
	// that strands one connection per attempt re-dials the server
	// MaxAttempts times — under load shedding, exactly when the server can
	// least afford an accept storm.
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// A torn response is as retryable as a refused connection.
		return 0, nil, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, data, resp.Header, nil
}

// retryable reports whether a status is worth another attempt: load
// shedding, server faults and gateway timeouts are; client errors are
// not (they will fail identically forever).
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the nth retry delay: capped exponential with jitter in
// [50%, 100%] of the step, floored at the server's Retry-After when one
// was sent (never retry *sooner* than the server asked).
func (c *Client) backoff(n int, header http.Header) time.Duration {
	d := c.cfg.BaseBackoff << (n - 1)
	if d > c.cfg.MaxBackoff || d <= 0 { // <= 0 guards shift overflow
		d = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	jitter := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	if ra := retryAfter(header); ra > d {
		d = ra
	}
	return d
}

// retryAfter parses a Retry-After header in either RFC 9110 §10.2.3 form:
// delay-seconds, or an HTTP-date (vppb-serve sends delay-seconds, but the
// client may sit behind proxies that rewrite the header). The result is 0
// when the header is absent or unparseable, and for an HTTP-date that is
// not in the future — a past date means "retry now", and with client/server
// clock skew that is the only safe reading.
func retryAfter(header http.Header) time.Duration {
	return retryAfterAt(header, time.Now())
}

func retryAfterAt(header http.Header, now time.Time) time.Duration {
	if header == nil {
		return 0
	}
	v := header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	when, err := http.ParseTime(v)
	if err != nil {
		// Unparseable: treat as absent rather than stalling or failing.
		return 0
	}
	d := when.Sub(now)
	if d < 0 {
		return 0
	}
	return d
}

// sleep waits d, or returns early with the context's error.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.cfg.Sleep != nil {
		c.cfg.Sleep(d)
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
