package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"vppb/internal/faultinject"
	"vppb/internal/gotrace"
	"vppb/internal/ingest/ingesttest"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/vtime"
	"vppb/internal/workloads"
)

// differentialLogs returns the recordings the differential tests replay:
// every Table 1 kernel at 4 threads, ocean at 16, and the committed Go
// execution trace converted to a log.
func differentialLogs(t *testing.T) map[string]*trace.Log {
	t.Helper()
	logs := make(map[string]*trace.Log)
	record := func(name string, threads int) {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := recorder.Record(w.Bind(workloads.Params{Threads: threads, Scale: 0.1}), recorder.Options{Program: name})
		if err != nil {
			t.Fatal(err)
		}
		logs[fmt.Sprintf("%s_%dt", name, threads)] = l
	}
	for _, name := range workloads.Splash() {
		record(name, 4)
	}
	record("ocean", 16)
	raw, err := os.ReadFile("../gotrace/testdata/go-mutexchan.trace")
	if err != nil {
		t.Fatal(err)
	}
	if logs["go-mutexchan"], err = gotrace.Convert(raw, gotrace.Options{}); err != nil {
		t.Fatal(err)
	}
	return logs
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkOracle compares Validate's verdict and event index, and the built
// profile or its error, with the reference implementations.
func checkOracle(t *testing.T, what string, l *trace.Log) {
	t.Helper()
	i, err := trace.ValidateAt(l)
	oi, oerr := trace.OracleValidate(l)
	if i != oi || errString(err) != errString(oerr) {
		t.Fatalf("%s: validate = %d, %v; oracle %d, %v", what, i, err, oi, oerr)
	}
	p, err := trace.BuildProfile(l)
	op, oerr := trace.OracleBuildProfile(l)
	if errString(err) != errString(oerr) {
		t.Fatalf("%s: BuildProfile error %v; oracle %v", what, err, oerr)
	}
	if !reflect.DeepEqual(p, op) {
		t.Fatalf("%s: profile differs from the oracle's", what)
	}
}

// TestDifferentialDecodeValidateProfile decodes every recording from both
// encodings, then checks Validate, Repair and the profile against the
// reference implementations on the decoded log and on one faultinject
// corruption per class of it, and Validate and the profile on their
// repairs.
func TestDifferentialDecodeValidateProfile(t *testing.T) {
	for name, rec := range differentialLogs(t) {
		text := trace.AppendText(nil, rec)
		base, err := trace.DecodeText(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ol, err := trace.OracleReadText(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !reflect.DeepEqual(base, ol) {
			t.Fatalf("%s: text decode differs from the oracle's", name)
		}
		bl, err := trace.Decode(trace.AppendBinary(nil, rec))
		if err != nil {
			t.Fatalf("%s: binary: %v", name, err)
		}
		if !reflect.DeepEqual(bl, base) {
			t.Fatalf("%s: binary and text decodes differ", name)
		}

		cases := map[string]*trace.Log{name: base}
		for _, class := range faultinject.Classes() {
			c, _, err := faultinject.Inject(base, class, 1)
			if err != nil {
				t.Fatal(err)
			}
			cases[name+"/"+string(class)] = c
		}
		for what, l := range cases {
			checkOracle(t, what, l)
			repaired, _, err := trace.Repair(l)
			var ue *trace.UnrecoverableError
			switch {
			case err == nil:
				checkOracle(t, what+" repaired", repaired)
			case !errors.As(err, &ue):
				t.Fatalf("%s: Repair: %v", what, err)
			}
			if err := trace.DiffRepair(l); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
}

// pairedLog generates a log that is mostly well paired, with the
// irregularities recordings never hold but uploads may: thread 0, AFTER
// records closing thr_exit, condition waits completing on another object,
// calls issued while another is open, and calls left open at the end.
func pairedLog(r *rand.Rand) *trace.Log {
	l := &trace.Log{Header: trace.Header{Program: "paired", CPUs: 1, LWPs: 1, ProbeCost: vtime.Duration(r.Intn(3))}}
	for id, n := 1, 1+r.Intn(4); id <= n; id++ {
		l.Threads = append(l.Threads, trace.ThreadInfo{ID: trace.ThreadID(id), BoundCPU: -1})
	}
	for id := 1; id <= 3; id++ {
		l.Objects = append(l.Objects, trace.ObjectInfo{ID: trace.ObjectID(id), Kind: trace.ObjCond})
	}
	calls := []trace.Call{
		trace.CallCondWait, trace.CallCondTimedWait, trace.CallCondBroadcast,
		trace.CallCondWait, trace.CallCondTimedWait, trace.CallCondBroadcast,
		trace.CallMutexLock, trace.CallStartCollect, trace.CallThrJoin, trace.CallIO, trace.CallThrExit,
	}
	open := make(map[trace.ThreadID]trace.Event)
	var at vtime.Time
	for i, n := 0, 10+r.Intn(60); i < n; i++ {
		tid := trace.ThreadID(r.Intn(len(l.Threads) + 1))
		ev := trace.Event{Seq: int64(i), Thread: tid, Object: trace.ObjectID(1 + r.Intn(3)), OK: r.Intn(2) == 0}
		before, ok := open[tid]
		if ok && before.Call == trace.CallThrExit && r.Intn(4) != 0 {
			continue
		}
		if ok && r.Intn(30) != 0 {
			ev.Class, ev.Call = trace.After, before.Call
			if r.Intn(3) != 0 {
				ev.Object = before.Object
			}
			delete(open, tid)
		} else {
			ev.Class, ev.Call = trace.Before, calls[r.Intn(len(calls))]
			if ev.Call != trace.CallStartCollect {
				open[tid] = ev
			}
		}
		at += vtime.Time(r.Intn(5))
		ev.Time = at
		l.Events = append(l.Events, ev)
	}
	l.Header.End = at
	return l
}

func TestDifferentialValidateProfileRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		checkOracle(t, fmt.Sprintf("log %d", i), pairedLog(r))
	}
}

// TestDifferentialRepair checks Repair against its reference
// implementation: every recording under one to three compounded
// faultinject corruptions, the first of each class; generated logs as
// they are, with a duplicate out of place and with one corruption; and
// every input of the frontends' verdict tests that decodes as a log, the
// one no repair makes valid among them.
func TestDifferentialRepair(t *testing.T) {
	check := func(what string, l *trace.Log) {
		t.Helper()
		if err := trace.DiffRepair(l); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	classes := faultinject.Classes()
	// corrupt compounds up to n corruptions, the first of class first; it
	// stops early once a truncation leaves too few events for another.
	corrupt := func(l *trace.Log, first faultinject.Class, n int, r *rand.Rand) (*trace.Log, string) {
		what := ""
		for k, class := 0, first; k < n; k, class = k+1, classes[r.Intn(len(classes))] {
			bad, _, err := faultinject.Inject(l, class, r.Int63())
			if err != nil {
				break
			}
			l, what = bad, what+"/"+string(class)
		}
		return l, what
	}
	for name, rec := range differentialLogs(t) {
		for _, class := range classes {
			for seed := int64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewSource(seed))
				l, what := corrupt(rec, class, 1+r.Intn(3), r)
				check(fmt.Sprintf("%s%s (seed %d)", name, what, seed), l)
			}
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		l := pairedLog(r)
		check(fmt.Sprintf("paired log %d", seed), l)
		// A copy of a record, with its outcome flipped, delivered out of
		// order: the stable sort keeps whichever came first.
		moved := l.Clone()
		ev := moved.Events[r.Intn(len(moved.Events))]
		ev.OK = !ev.OK
		moved.Events = slices.Insert(moved.Events, r.Intn(len(moved.Events)+1), ev)
		check(fmt.Sprintf("paired log %d with a moved duplicate", seed), moved)
		l, what := corrupt(l, classes[seed%int64(len(classes))], 1, r)
		check(fmt.Sprintf("paired log %d%s", seed, what), l)
	}
	refused := false
	for _, c := range ingesttest.Cases(t) {
		l, err := trace.Decode(c.Raw)
		if err != nil {
			continue
		}
		check(c.Name, l)
		if c.Name == "unrecoverable" {
			_, _, err := trace.Repair(l)
			var ue *trace.UnrecoverableError
			refused = errors.As(err, &ue)
		}
	}
	if !refused {
		t.Fatal("the unrecoverable input was repaired")
	}
}
