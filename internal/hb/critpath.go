package hb

import (
	"sort"

	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// extractPath combines the two lower-bound terms — the longest mandatory
// dependency chain and the largest per-object serial demand — into the
// critical path, and derives the path nodes, the per-site aggregation and
// the per-object serialization scores.
func (a *Analysis) extractPath(dist []int64, backEv []int, cpuW, waitW []vtime.Duration, attr []trace.ObjectID, recOf []int, serial map[trace.ObjectID]vtime.Duration) {
	end, maxD := -1, int64(0)
	for i, d := range dist {
		if d > maxD {
			end, maxD = i, d
		}
	}
	a.Chain = vtime.Duration(maxD)

	var topObj trace.ObjectID
	var topS vtime.Duration
	for id, s := range serial {
		if s > topS || (s == topS && topObj != 0 && id < topObj) {
			topObj, topS = id, s
		}
	}

	a.SerialDemand = topS
	a.CritPath = a.Chain
	if topS > a.CritPath {
		a.CritPath = topS
		a.Dominant = topObj
	}

	node := func(i int) PathNode {
		ev := a.Log.Events[i]
		return PathNode{
			Event:  i,
			Thread: ev.Thread,
			Record: recOf[i],
			CPU:    cpuW[i],
			Wait:   waitW[i],
			Object: attr[i],
			Call:   ev.Call,
			Class:  ev.Class,
			Loc:    ev.Loc,
		}
	}
	// Both kinds of path are counted first, so Path is allocated once.
	if a.Dominant != 0 {
		// The serialized operations of the dominant object form the path:
		// no schedule can overlap them, so together they are a chain.
		onPath := func(i int) bool { return attr[i] == a.Dominant && cpuW[i]+waitW[i] > 0 }
		n := 0
		for i := range a.Log.Events {
			if onPath(i) {
				n++
			}
		}
		a.Path = make([]PathNode, 0, n)
		for i := range a.Log.Events {
			if onPath(i) {
				a.Path = append(a.Path, node(i))
			}
		}
	} else if end >= 0 {
		n := 0
		for i := end; i >= 0; i = backEv[i] {
			n++
		}
		// The back links run from the end of the chain to its start.
		a.Path = make([]PathNode, n)
		for i, k := end, n-1; i >= 0; i, k = backEv[i], k-1 {
			a.Path[k] = node(i)
		}
	}
	a.aggregate(serial)
}

// aggregate fills Sites (from the path) and Scores (from the per-object
// serial demand).
func (a *Analysis) aggregate(serial map[trace.ObjectID]vtime.Duration) {
	type key struct {
		file string
		line int
	}
	sites := make(map[key]*SiteCost)
	for _, n := range a.Path {
		w := n.Time()
		if w == 0 {
			continue
		}
		k := key{n.Loc.File, n.Loc.Line}
		s := sites[k]
		if s == nil {
			s = &SiteCost{Loc: n.Loc}
			sites[k] = s
		}
		s.Time += w
		s.Count++
	}
	for _, s := range sites {
		a.Sites = append(a.Sites, *s)
	}
	sort.Slice(a.Sites, func(i, j int) bool {
		if a.Sites[i].Time != a.Sites[j].Time {
			return a.Sites[i].Time > a.Sites[j].Time
		}
		if a.Sites[i].Loc.File != a.Sites[j].Loc.File {
			return a.Sites[i].Loc.File < a.Sites[j].Loc.File
		}
		return a.Sites[i].Loc.Line < a.Sites[j].Loc.Line
	})
	for id, t := range serial {
		if t == 0 {
			continue
		}
		os := ObjectScore{ID: id, Name: a.Log.ObjectName(id), Time: t}
		if info := a.Log.Object(id); info != nil {
			os.Kind = info.Kind
		}
		if a.CritPath > 0 {
			os.Score = float64(t) / float64(a.CritPath)
		}
		a.Scores = append(a.Scores, os)
	}
	sort.Slice(a.Scores, func(i, j int) bool {
		if a.Scores[i].Time != a.Scores[j].Time {
			return a.Scores[i].Time > a.Scores[j].Time
		}
		return a.Scores[i].ID < a.Scores[j].ID
	})
}

// Bound is the machine-independent speed-up upper bound Work / CritPath: no
// processor count can run the program more than Bound times faster than the
// uni-processor execution.
func (a *Analysis) Bound() float64 {
	if a.CritPath <= 0 || a.Work <= 0 {
		return 1
	}
	b := float64(a.Work) / float64(a.CritPath)
	if b < 1 {
		// The critical path can exceed the pure compute sum when mandatory
		// latency (I/O, timeouts) dominates; the speed-up over the
		// uni-processor run is still at least 1 by definition.
		return 1
	}
	return b
}

// BoundAt clamps the bound by the trivial processor-count limit.
func (a *Analysis) BoundAt(cpus int) float64 {
	b := a.Bound()
	if cpus >= 1 && float64(cpus) < b {
		return float64(cpus)
	}
	return b
}

// SerializationScores returns the per-object scores as a map, for callers
// that re-rank other reports (analysis.Report.ApplySerialization).
func (a *Analysis) SerializationScores() map[trace.ObjectID]float64 {
	m := make(map[trace.ObjectID]float64, len(a.Scores))
	for _, s := range a.Scores {
		m[s.ID] = s.Score
	}
	return m
}

// PathRecords returns, per thread, the sorted call-record ordinals on the
// critical path — the key the viz overlay uses to highlight the path in the
// execution flow graph.
func (a *Analysis) PathRecords() map[trace.ThreadID][]int {
	m := make(map[trace.ThreadID]map[int]bool)
	for _, n := range a.Path {
		if m[n.Thread] == nil {
			m[n.Thread] = make(map[int]bool)
		}
		m[n.Thread][n.Record] = true
	}
	out := make(map[trace.ThreadID][]int, len(m))
	for tid, set := range m {
		recs := make([]int, 0, len(set))
		for r := range set {
			recs = append(recs, r)
		}
		sort.Ints(recs)
		out[tid] = recs
	}
	return out
}
