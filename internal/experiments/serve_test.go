package experiments

import (
	"strings"
	"testing"
)

func TestServeScaleClusterOutperformsSingleNode(t *testing.T) {
	res, err := ServeScale(Options{Scale: 0.3, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Topologies) != 3 {
		t.Fatalf("%d topologies, want 3", len(res.Topologies))
	}
	single, cluster, bigCache := res.Topologies[0], res.Topologies[1], res.Topologies[2]
	if single.Nodes != 1 || cluster.Nodes != 3 || bigCache.Nodes != 1 {
		t.Fatalf("topology sizes %d, %d and %d, want 1, 3 and 1", single.Nodes, cluster.Nodes, bigCache.Nodes)
	}
	// The big-cache node holds what the whole cluster holds.
	if bigCache.CacheEntries != cluster.Nodes*cluster.CacheEntries {
		t.Fatalf("big-cache node has %d entries, want %d", bigCache.CacheEntries, cluster.Nodes*cluster.CacheEntries)
	}
	// Sharding must never change results; this is the hard gate.
	if !res.BodiesIdentical {
		t.Fatal("cluster and single-node bodies differ for some digest")
	}
	// Every request (garbage included) reached a verdict.
	for _, tp := range res.Topologies {
		if tp.Succeeded != tp.Requests {
			t.Fatalf("failures on %d node(s) x %d entries: %d/%d", tp.Nodes, tp.CacheEntries, tp.Succeeded, tp.Requests)
		}
	}
	if res.BigCacheRatio <= 0 {
		t.Fatalf("big-cache ratio %v not measured", res.BigCacheRatio)
	}
	if res.CorruptRejected == 0 {
		t.Fatal("no garbage uploads in the mix")
	}
	// The economics the experiment exists to show: the single node's
	// cache (smaller than the working set) thrashes, the cluster's
	// shards stay warmer in aggregate. The smoke run is small and shares
	// one machine, so the gate here is loose; the CI job gates the real
	// run at 1.5x/2x.
	if res.ThroughputRatio <= 1.0 {
		t.Fatalf("cluster throughput ratio %.2fx, want > 1x", res.ThroughputRatio)
	}
	singleHits, clusterHits := int64(0), int64(0)
	for _, n := range single.PerNode {
		singleHits += n.CacheHits
	}
	for _, n := range cluster.PerNode {
		clusterHits += n.CacheHits
	}
	if clusterHits <= singleHits {
		t.Fatalf("cluster cache hits %d <= single node's %d; sharding kept nothing warm",
			clusterHits, singleHits)
	}
	// Forwarding actually happened in the cluster topology.
	forwarded := int64(0)
	for _, n := range cluster.PerNode {
		forwarded += n.Forwarded
	}
	if forwarded == 0 {
		t.Fatal("no requests were proxied between cluster nodes")
	}
	for _, want := range []string{"throughput ratio", "big-cache ratio", "bodies identical", "per-node hit rates"} {
		if !strings.Contains(res.Report, want) {
			t.Fatalf("report lacks %q:\n%s", want, res.Report)
		}
	}
}
