package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// outside the layer. An op span (parent -1) encloses the layer spans of
// one request; layer spans name the layer and the function.
type span struct {
	name   string
	req    string // request id; set on op spans, inherited by their children
	input  string // key of the input trace the call worked on
	parent int    // index of the enclosing span in the same log; -1 for an op
	start  time.Duration
	end    time.Duration
	work   int64 // bytes decoded, or events recorded or simulated
}

// spanLog holds the spans of one goroutine. Only that goroutine appends,
// so recording takes no lock. A nil *spanLog records nothing, which is how
// the untraced runs execute the very same code.
type spanLog struct {
	epoch time.Time
	tid   int
	label string
	spans []span
}

func newSpanLog(epoch time.Time, tid int, label string) *spanLog {
	return &spanLog{epoch: epoch, tid: tid, label: label}
}

// op opens a request's root span.
func (l *spanLog) op(name, req, input string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, req: req, input: input, parent: -1, start: time.Since(l.epoch)})
	return len(l.spans) - 1
}

// begin opens a layer span under parent.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil || parent < 0 {
		return -1
	}
	l.spans = append(l.spans, span{name: name, input: l.spans[parent].input, parent: parent, start: time.Since(l.epoch)})
	return len(l.spans) - 1
}

// finish closes span i, attaching the layer's work count.
func (l *spanLog) finish(i int, work int64) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = time.Since(l.epoch)
	l.spans[i].work = work
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover.
func (l *spanLog) selfTimes() []time.Duration {
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return l.spans[kids[a]].start < l.spans[kids[b]].start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			ks, ke := max(l.spans[k].start, s.start), min(l.spans[k].end, s.end)
			if ke <= ks {
				continue
			}
			if ks > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerStat sums the layer spans of one name.
type layerStat struct {
	calls int
	self  time.Duration
	work  int64
}

func (s *layerStat) meanMS() float64 {
	if s == nil || s.calls == 0 {
		return 0
	}
	return ms(s.self) / float64(s.calls)
}

// layerStats aggregates self time per span name over every log, keeping
// the spans keep accepts (nil keeps all).
func layerStats(logs []*spanLog, keep func(*span) bool) map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, l := range logs {
		self := l.selfTimes()
		for i := range l.spans {
			s := &l.spans[i]
			if keep != nil && !keep(s) {
				continue
			}
			st := out[s.name]
			if st == nil {
				st = &layerStat{}
				out[s.name] = st
			}
			st.calls++
			st.self += self[i]
			st.work += s.work
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// chrome://tracing and ui.perfetto.dev open: one track per goroutine, one
// complete event per span, with the request id, parent span and self time
// in its arguments.
func writeChromeTrace(path string, logs []*spanLog) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var events []event
	for _, l := range logs {
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: l.tid, Args: map[string]any{"name": l.label}})
		self := l.selfTimes()
		for i, s := range l.spans {
			root := i
			for l.spans[root].parent >= 0 {
				root = l.spans[root].parent
			}
			args := map[string]any{
				"id":      fmt.Sprintf("%d.%d", l.tid, i),
				"request": l.spans[root].req,
				"input":   s.input,
				"self_us": us(self[i]),
			}
			cat := "op"
			if s.parent >= 0 {
				cat = "layer"
				args["parent"] = fmt.Sprintf("%d.%d", l.tid, s.parent)
			}
			if s.work != 0 {
				args["work"] = s.work
			}
			events = append(events, event{Name: s.name, Cat: cat, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: l.tid, Args: args})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
