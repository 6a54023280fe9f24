package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vppb/internal/analysis"
	"vppb/internal/serve"
)

// clients is the number of closed-loop callers, goroutines and keep-alive
// connections: one per CPU of the 2-CPU machine the bounds were set on.
const clients = 2

// route is what one op asks of the program.
type route int

const (
	routePredict  route = iota // POST /v1/predict
	routeBounds                // POST /v1/bounds
	routeOptimize              // POST /v1/optimize
	routeRecord                // record -> encode -> decode -> profile -> simulate, no HTTP
)

// op is one request of a workload's schedule.
type op struct {
	class  string // ops of one class must return one canonical body
	route  route
	in     *input // nil for garbage
	junk   []byte // garbage upload, expected to be refused with 400
	upload bool   // send the trace bytes; otherwise address it by digest
	policy string
	cpus   []int
	path   string // URL path and query
	want   *expect
}

// expect is the reference outcome of an op class, computed by calling the
// layers directly during set-up.
type expect struct {
	status int
	preds  []prediction       // predict: one entry per requested CPU count
	bounds []byte             // bounds: the exact body, stamped with the base name
	winner analysis.Candidate // optimize: the exhaustive sweep's winner
	body   []byte             // record: the canonical body of the first pipeline
	events int64              // events the op simulates
}

// bench is one set-up of one workload: its inputs, references, the
// in-process server (for the serving workloads) and the verifier.
type bench struct {
	seed   int64
	rng    *rand.Rand
	stamp  int64 // base stamp; request n of client c uses stamp+n*clients+c
	dir    string
	inputs []*input
	ops    [clients][]op

	srv      *serve.Server
	hs       *http.Server
	served   chan struct{}
	url      string
	http     *http.Client
	digests  map[*input]string
	putStore *serve.Store // the traced run's own store for direct Store.Put calls
	verifier *verifier
}

// newBench builds a workload's inputs, server and references.
func newBench(w *workload, o options) (*bench, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	b := &bench{
		seed:     o.seed,
		rng:      rng,
		stamp:    100_000_000_000 + rng.Int63n(400_000_000_000),
		dir:      dir,
		digests:  map[*input]string{},
		verifier: newVerifier(),
	}
	for _, spec := range w.specs {
		scale := spec.scale * (0.9 + 0.2*rng.Float64())
		if w.recordOnly {
			b.inputs = append(b.inputs, &input{spec: spec, scale: scale, stampAt: -1, name: spec.key})
			continue
		}
		in, err := newInput(o.root, spec, scale, b.stamp)
		if err != nil {
			b.close()
			return nil, err
		}
		b.inputs = append(b.inputs, in)
	}
	if err := w.prepare(b); err != nil {
		b.close()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if !o.trace {
		b.release()
	}
	return b, nil
}

// schedule adds n copies of o to client c's round.
func (b *bench) schedule(c, n int, o op) {
	for i := 0; i < n; i++ {
		b.ops[c] = append(b.ops[c], o)
	}
}

// release drops the references only the traced run's direct calls use, so
// that in an untraced run the heap and the collector's work are the
// server's, not the benchmark's.
func (b *bench) release() {
	for _, list := range b.ops {
		for _, o := range list {
			if o.in != nil {
				o.in.log, o.in.prof, o.in.an = nil, nil, nil
				if !o.upload {
					o.in.raw = nil
				}
			}
		}
	}
}

// startServer runs one in-process serve.Server on a loopback listener.
func (b *bench) startServer() error {
	srv, err := serve.New(serve.Config{CacheEntries: 16, StoreDir: filepath.Join(b.dir, "store")})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = srv
	b.hs = &http.Server{Handler: srv.Handler()}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.hs.Serve(ln)
	}()
	b.url = "http://" + ln.Addr().String()
	// Plain net/http without retries: every failure is counted.
	b.http = &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		},
		// Past the server's own 30 s deadline: only a hung server hits it.
		Timeout: time.Minute,
	}
	return nil
}

// post sends one request and reads the whole reply.
func (b *bench) post(path string, body []byte) (int, []byte, http.Header, error) {
	resp, err := b.http.Post(b.url+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, data, resp.Header, nil
}

// upload sends a warm-up upload and checks the content address the server
// gives it.
func (b *bench) upload(in *input) error {
	status, body, hdr, err := b.post("/v1/predict?cpus=1", in.raw)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("uploading %s: status %d: %s", in.spec.key, status, body)
	}
	digest := hdr.Get("X-Vppb-Trace")
	if digest != serve.Digest(in.raw) {
		return fmt.Errorf("uploading %s: server digest %q is not the SHA-256 of the upload", in.spec.key, digest)
	}
	b.digests[in] = digest
	return nil
}

// close stops the server, waits for it, and removes the work directory.
func (b *bench) close() {
	if b.hs != nil {
		b.hs.Close()
		<-b.served
		b.http.CloseIdleConnections()
	}
	os.RemoveAll(b.dir)
}

// verifier keeps the first canonical body of every op class. Every later
// body of the class must equal it byte for byte; the first one is checked
// against the direct reference in full.
type verifier struct {
	mu     sync.Mutex
	first  map[string][]byte
	errors []string
}

func newVerifier() *verifier { return &verifier{first: map[string][]byte{}} }

func (v *verifier) check(class string, body []byte, full func([]byte) error) error {
	v.mu.Lock()
	prev, seen := v.first[class]
	v.mu.Unlock()
	if seen {
		if !bytes.Equal(prev, body) {
			return fmt.Errorf("%s: body differs from the first one of its class", class)
		}
		return nil
	}
	if err := full(body); err != nil {
		return fmt.Errorf("%s: %w", class, err)
	}
	v.mu.Lock()
	if _, seen := v.first[class]; !seen {
		v.first[class] = bytes.Clone(body)
	}
	v.mu.Unlock()
	return nil
}

// note keeps the first few failure messages for the report.
func (v *verifier) note(err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.errors) < 5 {
		v.errors = append(v.errors, err.Error())
	}
}

// digest hashes every class's canonical body in class order. It is the
// same for every run of the same code at the same seed.
func (v *verifier) digest() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	classes := make([]string, 0, len(v.first))
	for c := range v.first {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	h := sha256.New()
	for _, c := range classes {
		h.Write([]byte(c))
		h.Write([]byte{0})
		h.Write(v.first[c])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// client is one closed-loop caller.
type client struct {
	id    int
	n     int64 // ops issued so far; also numbers the request stamps
	rng   *rand.Rand
	ops   []op
	order []int
	pos   int
	bufs  map[*input][]byte // private copies of stamped uploads
	spans *spanLog
}

func (b *bench) newClients(epoch time.Time) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		c := &client{
			id:    i,
			rng:   rand.New(rand.NewSource(b.seed*1_000_003 + int64(i))),
			ops:   b.ops[i],
			bufs:  map[*input][]byte{},
			spans: newSpanLog(epoch, i, fmt.Sprintf("client %d", i)),
		}
		c.order = c.rng.Perm(len(c.ops))
		cs[i] = c
	}
	return cs
}

// next returns the client's next op: the schedule in an order the seed
// shuffles anew every round.
func (c *client) next() *op {
	if c.pos == len(c.order) {
		c.rng.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
		c.pos = 0
	}
	o := &c.ops[c.order[c.pos]]
	c.pos++
	return o
}

// body returns the bytes op o uploads, stamped for the client's current
// request, and the program name they carry.
func (b *bench) body(c *client, o *op) ([]byte, string) {
	switch {
	case o.junk != nil:
		return o.junk, ""
	case !o.upload:
		return nil, ""
	}
	buf := c.bufs[o.in]
	if buf == nil {
		buf = bytes.Clone(o.in.raw)
		c.bufs[o.in] = buf
	}
	return buf, o.in.patchStamp(buf, b.stamp+c.n*clients+int64(c.id))
}
