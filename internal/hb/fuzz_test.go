package hb

import (
	"bytes"
	"testing"

	"vppb/internal/trace"
)

// FuzzAnalyze drives the whole untrusted-input pipeline the analyzer sits
// behind: decode a text log, repair it, analyze it, and render every
// report. The contract is the usual one — reject with an error, never
// panic — and the renderers must cope with whatever shape the repair pass
// lets through.
func FuzzAnalyze(f *testing.F) {
	seeds := [][]byte{
		trace.AppendText(nil, serializedCS(f)),
		trace.AppendText(nil, abba(f, false, false)),
		trace.AppendText(nil, abba(f, true, false)),
		[]byte("# vppb-log v1\ncpus 1\nlwps 1\nevent 0 0 T1 before thr_exit\n"),
		[]byte("# vppb-log v1\ncpus 1\nlwps 1\nthread 4 name=w prio=0\n" +
			"object 1 kind=mutex name=m\nevent 0 5 T4 before mutex_lock O1\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := trace.ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		repaired, _, err := trace.Repair(l)
		if err != nil {
			return
		}
		a, err := Analyze(repaired)
		if err != nil {
			return
		}
		// Whatever analyzed must render, in every format.
		_ = a.FormatBound()
		_ = a.FormatCritPath(5)
		_ = a.FormatLockOrder()
		if _, err := a.FormatJSON(5); err != nil {
			t.Fatalf("FormatJSON on accepted log: %v", err)
		}
		if b := a.Bound(); b < 1 {
			t.Fatalf("bound %v < 1", b)
		}
		if n := len(a.Clocks()); n != len(a.Log.Events) {
			t.Fatalf("%d clocks for %d events", n, len(a.Log.Events))
		}
		for _, n := range a.Path {
			if n.Event < 0 || n.Event >= len(a.Log.Events) {
				t.Fatalf("path node out of range: %+v", n)
			}
		}
	})
}
