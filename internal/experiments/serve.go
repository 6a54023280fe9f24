package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"vppb/internal/recorder"
	"vppb/internal/serve"
	"vppb/internal/serveclient"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// ServeResult is the horizontal-scaling experiment: the same closed-loop
// workload against one vppb-serve node, against a 3-node consistent-hash
// cluster, and against one node whose cache holds as many entries as the
// whole cluster's. The working set is deliberately larger than one node's
// profile cache, so the small single node thrashes (every request
// re-uploads and re-ingests its trace) while the cluster's shards each
// hold their slice warm. The third topology separates the two things a
// cluster adds: if it matches the cluster, cache capacity explains the
// gain; if the cluster still wins, sharding the work does.
type ServeResult struct {
	Traces       int `json:"traces"`
	CacheEntries int `json:"cache_entries"`
	Clients      int `json:"clients"`
	Rounds       int `json:"rounds"`

	Topologies []ServeTopology `json:"topologies"`

	// ThroughputRatio is cluster rps / single-node rps on the identical
	// workload.
	ThroughputRatio float64 `json:"throughput_ratio"`
	// BigCacheRatio is cluster rps / the rps of one node holding the
	// cluster's total cache.
	BigCacheRatio float64 `json:"big_cache_ratio"`
	// BodiesIdentical reports that every digest's prediction body from
	// the cluster was byte-identical to the single node's — sharding and
	// proxying change where work runs, never what it computes.
	BodiesIdentical bool `json:"bodies_identical"`
	// CorruptRejected counts the garbage uploads in the mix; every one
	// must be rejected with a 4xx by both topologies.
	CorruptRejected int `json:"corrupt_rejected"`

	Report string `json:"-"`
}

// ServeTopology is one topology's half of the comparison.
type ServeTopology struct {
	Nodes int `json:"nodes"`
	// CacheEntries is each node's profile-cache capacity.
	CacheEntries  int     `json:"cache_entries"`
	Requests      int     `json:"requests"`
	Succeeded     int     `json:"succeeded"`
	Uploads       int     `json:"uploads"`
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`

	PerNode []ServeNodeStats `json:"per_node"`
}

// ServeNodeStats is one node's cache and proxy picture after the run.
type ServeNodeStats struct {
	Node           string  `json:"node"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	HitRate        float64 `json:"hit_rate"`
	Forwarded      int64   `json:"forwarded"`
}

// Serve-scale shape: more distinct digests than one cache holds, enough
// clients to keep every node busy, and a cluster wide enough that each
// shard (~traces/3 digests) fits its cache.
const (
	serveTraces       = 12
	serveCacheEntries = 8
	serveClients      = 6
	serveClusterNodes = 3
)

// ServeScale runs the horizontal-scaling comparison. Both topologies are
// in-process daemons on loopback listeners, driven by the retrying
// serveclient exactly like a production caller: digest-probe first,
// upload on 404. The workload mixes warm replays, cold misses and
// garbage uploads; bodies are compared across topologies per digest.
func ServeScale(opts Options) (*ServeResult, error) {
	opts = opts.normalized()

	// Distinct digests: one workload recorded at distinct problem sizes.
	w, err := workloads.Get("prodcons")
	if err != nil {
		return nil, err
	}
	raws := make([][]byte, serveTraces)
	for i := range raws {
		log, _, err := recorder.Record(
			w.Bind(workloads.Params{Threads: 4, Scale: opts.Scale * (0.4 + 0.05*float64(i))}),
			recorder.Options{Program: "prodcons"})
		if err != nil {
			return nil, err
		}
		raws[i] = trace.AppendText(nil, log)
	}
	garbage := []byte("this is not a trace in any recognized format\n")

	out := &ServeResult{
		Traces:          serveTraces,
		CacheEntries:    serveCacheEntries,
		Clients:         serveClients,
		Rounds:          opts.Runs,
		BodiesIdentical: true,
	}

	// bodies[digest index] is the reference body from the single node.
	var reference [][]byte
	for _, shape := range []struct{ nodes, cache int }{
		{1, serveCacheEntries},
		{serveClusterNodes, serveCacheEntries},
		{1, serveClusterNodes * serveCacheEntries},
	} {
		topo, bodies, rejected, err := runServeTopology(shape.nodes, shape.cache, raws, garbage, opts.Runs)
		if err != nil {
			return nil, err
		}
		out.Topologies = append(out.Topologies, *topo)
		out.CorruptRejected += rejected
		if reference == nil {
			reference = bodies
			continue
		}
		for i := range bodies {
			if string(bodies[i]) != string(reference[i]) {
				out.BodiesIdentical = false
			}
		}
	}
	single, cluster, bigCache := out.Topologies[0], out.Topologies[1], out.Topologies[2]
	if single.ThroughputRPS > 0 {
		out.ThroughputRatio = cluster.ThroughputRPS / single.ThroughputRPS
	}
	if bigCache.ThroughputRPS > 0 {
		out.BigCacheRatio = cluster.ThroughputRPS / bigCache.ThroughputRPS
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Horizontal scaling: one vppb-serve node vs a %d-node consistent-hash cluster\n\n", serveClusterNodes)
	fmt.Fprintf(&b, "%d trace digests, %d closed-loop clients, %d rounds\n",
		serveTraces, serveClients, opts.Runs)
	b.WriteString("(the working set exceeds one small cache, so that node re-ingests per request;\n")
	b.WriteString(" each cluster shard holds ~1/3 of the digests warm, and so does the big cache)\n\n")
	fmt.Fprintf(&b, "%8s %6s %10s %12s %9s %9s %9s  per-node hit rates\n",
		"nodes", "cache", "requests", "throughput", "p50", "p95", "p99")
	for _, tp := range out.Topologies {
		rates := make([]string, len(tp.PerNode))
		for i, n := range tp.PerNode {
			rates[i] = fmt.Sprintf("%.0f%%", 100*n.HitRate)
		}
		fmt.Fprintf(&b, "%8d %6d %10d %9.0f/s %7.1fms %7.1fms %7.1fms  %s\n",
			tp.Nodes, tp.CacheEntries, tp.Requests, tp.ThroughputRPS, tp.P50Ms, tp.P95Ms, tp.P99Ms,
			strings.Join(rates, " "))
	}
	fmt.Fprintf(&b, "\nthroughput ratio    %.2fx (cluster vs single node)\n", out.ThroughputRatio)
	fmt.Fprintf(&b, "big-cache ratio     %.2fx (cluster vs one node with %d entries)\n",
		out.BigCacheRatio, serveClusterNodes*serveCacheEntries)
	fmt.Fprintf(&b, "bodies identical    %v across topologies for every digest\n", out.BodiesIdentical)
	fmt.Fprintf(&b, "garbage uploads     %d, all rejected with 4xx\n", out.CorruptRejected)
	out.Report = b.String()
	return out, nil
}

// runServeTopology runs the closed-loop workload against an n-node
// cluster of cacheEntries-entry nodes and reports the topology stats, the
// final body per digest, and how many garbage uploads were rejected.
func runServeTopology(n, cacheEntries int, raws [][]byte, garbage []byte, rounds int) (*ServeTopology, [][]byte, int, error) {
	// Membership before servers: every node's ring needs all addresses.
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, 0, err
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	servers := make([]*serve.Server, n)
	for i := range lns {
		cfg := serve.Config{CacheEntries: cacheEntries}
		if n > 1 {
			cfg.Peers = addrs
			cfg.Self = addrs[i]
		}
		s, err := serve.New(cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		servers[i] = s
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(lns[i])
		defer hs.Close()
	}

	clients := make([]*serveclient.Client, serveClients)
	for i := range clients {
		clients[i] = serveclient.New(serveclient.Config{
			// Clients spread over the nodes: any node must answer any
			// request.
			BaseURL: "http://" + addrs[i%n],
			Seed:    int64(i + 1),
			Sleep:   func(d time.Duration) { time.Sleep(d / 5) },
		})
	}

	perClient := rounds * len(raws)
	type sample struct {
		ok       bool
		rejected bool
		uploads  int
		wall     time.Duration
	}
	samples := make([]sample, serveClients*perClient)
	finalBodies := make([][]byte, len(raws))
	var bodyMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for ri := 0; ri < perClient; ri++ {
				// Every client cycles the digest list from its own offset,
				// and salts one request per round with garbage.
				var raw []byte
				corrupt := ri%len(raws) == len(raws)-1
				if corrupt {
					raw = garbage
				} else {
					raw = raws[(ci*2+ri)%len(raws)]
				}
				t0 := time.Now()
				res, err := clients[ci].Predict(context.Background(), raw, url.Values{"cpus": {"2"}})
				s := sample{wall: time.Since(t0), uploads: res.Uploads}
				if corrupt {
					s.rejected = err == nil && res.Status >= 400 && res.Status < 500
					s.ok = s.rejected
				} else {
					s.ok = err == nil && res.Status == 200
					if s.ok {
						bodyMu.Lock()
						finalBodies[(ci*2+ri)%len(raws)] = res.Body
						bodyMu.Unlock()
					}
				}
				samples[ci*perClient+ri] = s
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)

	topo := &ServeTopology{Nodes: n, CacheEntries: cacheEntries, Requests: len(samples), WallSeconds: wall.Seconds()}
	rejected := 0
	var walls []time.Duration
	for _, s := range samples {
		if s.ok {
			topo.Succeeded++
		}
		if s.rejected {
			rejected++
		}
		topo.Uploads += s.uploads
		walls = append(walls, s.wall)
	}
	topo.ThroughputRPS = float64(topo.Succeeded) / wall.Seconds()
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(walls)-1))
		return float64(walls[i]) / float64(time.Millisecond)
	}
	topo.P50Ms, topo.P95Ms, topo.P99Ms = pct(0.50), pct(0.95), pct(0.99)
	for i, s := range servers {
		hits, misses, evicted := s.Cache().Stats()
		st := ServeNodeStats{
			Node:           fmt.Sprintf("node%d", i),
			CacheHits:      hits,
			CacheMisses:    misses,
			CacheEvictions: evicted,
		}
		if hits+misses > 0 {
			st.HitRate = float64(hits) / float64(hits+misses)
		}
		for _, peer := range addrs {
			st.Forwarded += s.Metrics().ProxyForwardedTotal(peer)
		}
		topo.PerNode = append(topo.PerNode, st)
	}

	for i, b := range finalBodies {
		if b == nil {
			return nil, nil, 0, fmt.Errorf("serve: digest %d never got a successful prediction on the %d-node topology", i, n)
		}
	}
	return topo, finalBodies, rejected, nil
}
