package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"vppb/internal/source"
	"vppb/internal/vtime"
)

// Reference implementations for the differential tests: the scanner-based
// text reader, the per-field-quoting text encoder, the scan-per-lookup
// validator, the copy-per-thread profile builder and the pass-per-stage
// repair that the in-place decoder, the per-run path encoder, the indexed
// validator, the single-pass builder and the one-walk repair replaced.
// They are kept verbatim except for one change each to validate and
// BuildProfile: where the original picked the reported error by walking a
// map (random order when several threads are at fault), these walk thread
// IDs ascending, the order the replacements report in. The repair keeps
// only its full pipeline (see oracleRepair).

func oracleReadText(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	l := &Log{}
	lineNo := 0
	sawMagic := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !sawMagic {
			if line != textMagic {
				return nil, fmt.Errorf("trace: line %d: not a vppb log (missing %q)", lineNo, textMagic)
			}
			sawMagic = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if err := oracleParseTextLine(l, fields); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if !sawMagic {
		return nil, fmt.Errorf("trace: empty input")
	}
	return l, nil
}

func oracleParseTextLine(l *Log, fields []string) error {
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "program":
		if len(fields) > 1 {
			l.Header.Program = unquote(fields[1])
		}
	case "cpus", "lwps", "probecost", "start", "end":
		if len(fields) < 2 {
			return fmt.Errorf("%s: missing value", fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", fields[0], err)
		}
		switch fields[0] {
		case "cpus":
			l.Header.CPUs = int(v)
		case "lwps":
			l.Header.LWPs = int(v)
		case "probecost":
			l.Header.ProbeCost = vtime.Duration(v)
		case "start":
			l.Header.Start = vtime.Time(v)
		case "end":
			l.Header.End = vtime.Time(v)
		}
	case "thread":
		return oracleParseThreadLine(l, fields)
	case "object":
		return oracleParseObjectLine(l, fields)
	case "event":
		return oracleParseEventLine(l, fields)
	default:
		return fmt.Errorf("unknown record %q", fields[0])
	}
	return nil
}

func oracleParseThreadLine(l *Log, fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("thread: missing id")
	}
	id, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return fmt.Errorf("thread id: %w", err)
	}
	t := ThreadInfo{ID: ThreadID(id), BoundCPU: -1}
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("thread: malformed field %q", f)
		}
		switch k {
		case "name":
			t.Name = unquote(v)
		case "func":
			t.Func = unquote(v)
		case "bound":
			t.Bound = v == "1"
		case "boundcpu":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			t.BoundCPU = int32(n)
		case "prio":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			t.Prio = int32(n)
		default:
			return fmt.Errorf("thread: unknown field %q", k)
		}
	}
	l.Threads = append(l.Threads, t)
	return nil
}

func oracleParseObjectLine(l *Log, fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("object: missing id")
	}
	id, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return fmt.Errorf("object id: %w", err)
	}
	o := ObjectInfo{ID: ObjectID(id)}
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("object: malformed field %q", f)
		}
		switch k {
		case "kind":
			switch v {
			case "mutex":
				o.Kind = ObjMutex
			case "sema":
				o.Kind = ObjSema
			case "cond":
				o.Kind = ObjCond
			case "rwlock":
				o.Kind = ObjRWLock
			case "device":
				o.Kind = ObjDevice
			default:
				return fmt.Errorf("object: unknown kind %q", v)
			}
		case "name":
			o.Name = unquote(v)
		case "count":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			o.InitCount = int32(n)
		default:
			return fmt.Errorf("object: unknown field %q", k)
		}
	}
	if o.Kind == ObjNone {
		return fmt.Errorf("object %d: missing kind", o.ID)
	}
	l.Objects = append(l.Objects, o)
	return nil
}

func oracleParseEventLine(l *Log, fields []string) error {
	if len(fields) < 6 {
		return fmt.Errorf("event: want at least 6 fields, got %d", len(fields))
	}
	var ev Event
	seq, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return fmt.Errorf("event seq: %w", err)
	}
	ev.Seq = seq
	ts, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return fmt.Errorf("event time: %w", err)
	}
	ev.Time = vtime.Time(ts)
	if !strings.HasPrefix(fields[3], "T") {
		return fmt.Errorf("event thread: %q", fields[3])
	}
	tid, err := strconv.ParseInt(fields[3][1:], 10, 32)
	if err != nil {
		return fmt.Errorf("event thread: %w", err)
	}
	ev.Thread = ThreadID(tid)
	switch fields[4] {
	case "before":
		ev.Class = Before
	case "after":
		ev.Class = After
	default:
		return fmt.Errorf("event class: %q", fields[4])
	}
	call, err := ParseCall(fields[5])
	if err != nil {
		return err
	}
	ev.Call = call
	for _, f := range fields[6:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("event: malformed field %q", f)
		}
		switch k {
		case "obj":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			ev.Object = ObjectID(n)
		case "mutex":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			ev.Mutex = ObjectID(n)
		case "target":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			ev.Target = ThreadID(n)
		case "ok":
			ev.OK = v == "1"
		case "timeout":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return err
			}
			ev.Timeout = vtime.Duration(n)
		case "prio":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			ev.Prio = int32(n)
		case "loc":
			file, lineStr, ok := oracleCutLast(v, ":")
			if !ok {
				return fmt.Errorf("event loc: %q", v)
			}
			n, err := strconv.Atoi(lineStr)
			if err != nil {
				return err
			}
			ev.Loc = source.Loc{File: unquote(file), Line: n}
		default:
			return fmt.Errorf("event: unknown field %q", k)
		}
	}
	l.Events = append(l.Events, ev)
	return nil
}

func oracleCutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// oracleAppendText is AppendText as it was before source paths were quoted
// once per run: every name and path goes through oracleQuote, which checks
// it rune by rune.
func oracleAppendText(dst []byte, l *Log) []byte {
	dst = append(dst, textMagic...)
	dst = append(dst, '\n')
	dst = append(dst, "program "...)
	dst = append(dst, oracleQuote(l.Header.Program)...)
	dst = append(dst, "\ncpus "...)
	dst = strconv.AppendInt(dst, int64(l.Header.CPUs), 10)
	dst = append(dst, "\nlwps "...)
	dst = strconv.AppendInt(dst, int64(l.Header.LWPs), 10)
	dst = append(dst, "\nprobecost "...)
	dst = strconv.AppendInt(dst, int64(l.Header.ProbeCost), 10)
	dst = append(dst, "\nstart "...)
	dst = strconv.AppendInt(dst, int64(l.Header.Start), 10)
	dst = append(dst, "\nend "...)
	dst = strconv.AppendInt(dst, int64(l.Header.End), 10)
	dst = append(dst, '\n')
	for _, t := range l.Threads {
		dst = append(dst, "thread "...)
		dst = strconv.AppendInt(dst, int64(t.ID), 10)
		dst = append(dst, " name="...)
		dst = append(dst, oracleQuote(t.Name)...)
		dst = append(dst, " func="...)
		dst = append(dst, oracleQuote(t.Func)...)
		dst = append(dst, " bound="...)
		dst = strconv.AppendInt(dst, int64(b2i(t.Bound)), 10)
		dst = append(dst, " boundcpu="...)
		dst = strconv.AppendInt(dst, int64(t.BoundCPU), 10)
		dst = append(dst, " prio="...)
		dst = strconv.AppendInt(dst, int64(t.Prio), 10)
		dst = append(dst, '\n')
	}
	for _, o := range l.Objects {
		dst = append(dst, "object "...)
		dst = strconv.AppendInt(dst, int64(o.ID), 10)
		dst = append(dst, " kind="...)
		dst = append(dst, o.Kind.String()...)
		dst = append(dst, " name="...)
		dst = append(dst, oracleQuote(o.Name)...)
		dst = append(dst, " count="...)
		dst = strconv.AppendInt(dst, int64(o.InitCount), 10)
		dst = append(dst, '\n')
	}
	for i := range l.Events {
		dst = oracleAppendEventLine(dst, &l.Events[i])
	}
	return dst
}

func oracleAppendEventLine(dst []byte, ev *Event) []byte {
	dst = append(dst, "event "...)
	dst = strconv.AppendInt(dst, ev.Seq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(ev.Time), 10)
	dst = append(dst, ' ', 'T')
	dst = strconv.AppendInt(dst, int64(ev.Thread), 10)
	dst = append(dst, ' ')
	dst = append(dst, ev.Class.String()...)
	dst = append(dst, ' ')
	dst = append(dst, ev.Call.String()...)
	if ev.Object != 0 {
		dst = append(dst, " obj="...)
		dst = strconv.AppendInt(dst, int64(ev.Object), 10)
	}
	if ev.Mutex != 0 {
		dst = append(dst, " mutex="...)
		dst = strconv.AppendInt(dst, int64(ev.Mutex), 10)
	}
	if ev.Target != 0 {
		dst = append(dst, " target="...)
		dst = strconv.AppendInt(dst, int64(ev.Target), 10)
	}
	if hasOutcome(ev.Call) {
		dst = append(dst, " ok="...)
		dst = strconv.AppendInt(dst, int64(b2i(ev.OK)), 10)
	}
	if ev.Timeout != 0 {
		dst = append(dst, " timeout="...)
		dst = strconv.AppendInt(dst, int64(ev.Timeout), 10)
	}
	if ev.Prio != 0 {
		dst = append(dst, " prio="...)
		dst = strconv.AppendInt(dst, int64(ev.Prio), 10)
	}
	if !ev.Loc.IsZero() {
		dst = append(dst, " loc="...)
		dst = append(dst, oracleQuote(ev.Loc.File)...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(ev.Loc.Line), 10)
	}
	return append(dst, '\n')
}

func oracleQuote(s string) string {
	if s == "" {
		return "-"
	}
	if s == "-" {
		return `\-`
	}
	plain := true
	for _, r := range s {
		if r == '\\' || unicode.IsSpace(r) {
			plain = false
			break
		}
	}
	if plain {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r == '\\':
			b.WriteString(`\\`)
		case r == ' ':
			b.WriteString(`\s`)
		case r == '\n':
			b.WriteString(`\n`)
		case r == '\t':
			b.WriteString(`\t`)
		case unicode.IsSpace(r):
			fmt.Fprintf(&b, `\u%04x`, r)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func oracleValidate(l *Log) (int, error) {
	var prev vtime.Time
	prevSeq := int64(-1)
	open := make(map[ThreadID]Call)
	for i, ev := range l.Events {
		if ev.Time < prev {
			return i, fmt.Errorf("trace: event %d: time %v before previous %v", i, ev.Time, prev)
		}
		if ev.Time == prev && ev.Seq <= prevSeq && i > 0 {
			return i, fmt.Errorf("trace: event %d: sequence not increasing at equal times", i)
		}
		prev, prevSeq = ev.Time, ev.Seq
		if ev.Time < l.Header.Start || ev.Time > l.Header.End {
			return i, fmt.Errorf("trace: event %d: time %v outside [%v, %v]", i, ev.Time, l.Header.Start, l.Header.End)
		}
		if ev.Call == CallNone || ev.Call >= numCalls {
			return i, fmt.Errorf("trace: event %d: invalid call %d", i, uint8(ev.Call))
		}
		if ev.Thread != 0 && l.Thread(ev.Thread) == nil {
			return i, fmt.Errorf("trace: event %d: unknown thread %d", i, ev.Thread)
		}
		if ev.Object != 0 && l.Object(ev.Object) == nil {
			return i, fmt.Errorf("trace: event %d: unknown object %d", i, ev.Object)
		}
		if ev.Mutex != 0 && l.Object(ev.Mutex) == nil {
			return i, fmt.Errorf("trace: event %d: unknown mutex %d", i, ev.Mutex)
		}
		switch ev.Class {
		case Before:
			if c, ok := open[ev.Thread]; ok {
				return i, fmt.Errorf("trace: event %d: thread %d issued %v while %v still open", i, ev.Thread, ev.Call, c)
			}
			if pairsWithAfter(ev.Call) {
				open[ev.Thread] = ev.Call
			}
		case After:
			c, ok := open[ev.Thread]
			if !ok {
				return i, fmt.Errorf("trace: event %d: thread %d AFTER %v without BEFORE", i, ev.Thread, ev.Call)
			}
			if c != ev.Call {
				return i, fmt.Errorf("trace: event %d: thread %d AFTER %v does not match open %v", i, ev.Thread, ev.Call, c)
			}
			delete(open, ev.Thread)
		default:
			return i, fmt.Errorf("trace: event %d: invalid class %d", i, ev.Class)
		}
	}
	tids := make([]ThreadID, 0, len(open))
	for tid := range open {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		// thr_exit never completes for the exiting thread; everything else
		// must have closed.
		if c := open[tid]; c != CallThrExit {
			return -1, fmt.Errorf("trace: thread %d: %v never completed", tid, c)
		}
	}
	return -1, nil
}

func oracleBuildProfile(l *Log) (*Profile, error) {
	if l.Header.CPUs != 1 || l.Header.LWPs != 1 {
		return nil, fmt.Errorf("trace: profile requires a 1-CPU/1-LWP recording, log has %d CPUs, %d LWPs",
			l.Header.CPUs, l.Header.LWPs)
	}
	if _, err := oracleValidate(l); err != nil {
		return nil, err
	}

	type attributed struct {
		ev       Event
		index    int // in l.Events
		cpu      vtime.Duration
		released int32
	}
	perThread := make(map[ThreadID][]attributed)
	condWaiters := make(map[ObjectID]map[ThreadID]bool)
	waitingOn := make(map[ThreadID]ObjectID)
	prev := l.Header.Start
	for i, ev := range l.Events {
		gap := ev.Time.Sub(prev) - l.Header.ProbeCost
		if gap < 0 {
			gap = 0
		}
		if ev.Class == After && (ev.Call == CallIO || (ev.Call == CallCondTimedWait && !ev.OK)) {
			gap = 0
		}
		a := attributed{ev: ev, index: i, cpu: gap}
		switch {
		case ev.Class == Before && (ev.Call == CallCondWait || ev.Call == CallCondTimedWait):
			if condWaiters[ev.Object] == nil {
				condWaiters[ev.Object] = make(map[ThreadID]bool)
			}
			condWaiters[ev.Object][ev.Thread] = true
			waitingOn[ev.Thread] = ev.Object
		case ev.Class == After && (ev.Call == CallCondWait || ev.Call == CallCondTimedWait):
			delete(condWaiters[ev.Object], ev.Thread)
			delete(waitingOn, ev.Thread)
		case ev.Class == Before && ev.Call == CallCondBroadcast:
			a.released = int32(len(condWaiters[ev.Object]))
		}
		perThread[ev.Thread] = append(perThread[ev.Thread], a)
		prev = ev.Time
	}

	p := &Profile{Header: l.Header, Objects: l.Objects, Threads: make(map[ThreadID]*ThreadProfile)}
	// Sites are numbered in order of first appearance among the Before
	// events of the global order.
	siteOf := make(map[int]int32)
	for i, ev := range l.Events {
		if ev.Class != Before {
			continue
		}
		cs := CallSite{Loc: ev.Loc, Object: ev.Object, Target: ev.Target}
		si := int32(slices.Index(p.Sites, cs))
		if si < 0 {
			si = int32(len(p.Sites))
			p.Sites = append(p.Sites, cs)
		}
		siteOf[i] = si
	}
	tids := make([]ThreadID, 0, len(perThread))
	for tid := range perThread {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	// A record's references are dense: an object is its position in the
	// object table (the last one that carries the ID), a thread its
	// position among the profiled threads in ascending ID order.
	object := func(id ObjectID) int32 {
		idx := int32(-1)
		for i, oi := range l.Objects {
			if oi.ID == id {
				idx = int32(i)
			}
		}
		return idx
	}
	thread := func(id ThreadID) int32 {
		for i, tid := range tids {
			if tid == id {
				return int32(i)
			}
		}
		return -1
	}
	for _, tid := range tids {
		evs := perThread[tid]
		tp := &ThreadProfile{}
		if info := l.Thread(tid); info != nil {
			tp.Info = *info
		} else {
			tp.Info = ThreadInfo{ID: tid, BoundCPU: -1}
		}
		var pending *CallRecord
		var pendingSeq int64
		for i := 0; i < len(evs); i++ {
			a := evs[i]
			switch a.ev.Class {
			case Before:
				if pending != nil {
					return nil, fmt.Errorf("trace: thread %d: overlapping calls at seq %d", tid, a.ev.Seq)
				}
				rec := CallRecord{
					CPUBefore: a.cpu,
					Call:      a.ev.Call,
					Obj:       object(a.ev.Object),
					Mutex:     object(a.ev.Mutex),
					Target:    thread(a.ev.Target),
					OK:        a.ev.OK,
					Timeout:   a.ev.Timeout,
					Prio:      a.ev.Prio,
					Released:  a.released,
					Site:      siteOf[a.index],
				}
				if pairsWithAfter(a.ev.Call) && a.ev.Call != CallThrExit {
					pending, pendingSeq = &rec, a.ev.Seq
				} else {
					tp.Calls = append(tp.Calls, rec)
				}
			case After:
				if pending == nil {
					return nil, fmt.Errorf("trace: thread %d: AFTER without BEFORE at seq %d", tid, a.ev.Seq)
				}
				pending.CallCPU = a.cpu
				pending.BlockedInLog = a.ev.Seq != pendingSeq+1
				if a.ev.Call == CallThrJoin {
					pending.JoinedTarget = a.ev.Target
				}
				if a.ev.Call == CallCondTimedWait || a.ev.Call == CallMutexTryLock || a.ev.Call == CallSemaTryWait {
					pending.OK = a.ev.OK
				}
				tp.Calls = append(tp.Calls, *pending)
				pending = nil
			}
		}
		if pending != nil {
			return nil, fmt.Errorf("trace: thread %d: call %v never completed", tid, pending.Call)
		}
		p.Threads[tid] = tp
	}
	p.IDs = make([]ThreadID, 0, len(p.Threads))
	for id := range p.Threads {
		p.IDs = append(p.IDs, id)
	}
	sort.Slice(p.IDs, func(i, j int) bool { return p.IDs[i] < p.IDs[j] })
	return p, nil
}

// oracleRepair is Repair as it was before the one-pass walk: a clone,
// one pass per strategy, a map of seen sequence numbers and a final sort.
// Its strategy list is fixed to the full pipeline, the only one Repair
// runs now, and its report lines go through a local add where the
// original had a RepairReport method.
func oracleRepair(l *Log) (*Log, *RepairReport, error) {
	enabled := map[RepairStrategy]bool{
		RepairSort: true, RepairDropDuplicates: true, RepairClampTimes: true,
		RepairDropOrphans: true, RepairSynthesize: true,
	}
	c := l.Clone()
	rep := &RepairReport{}
	add := func(s RepairStrategy, seq int64, format string, args ...any) {
		rep.Mutations = append(rep.Mutations, RepairMutation{
			Strategy: s, Seq: seq, Detail: fmt.Sprintf(format, args...),
		})
	}

	// Recover recording order first: pairing and clock invariants are
	// defined by the order events were recorded (Seq), not by their
	// possibly shuffled positions or corrupted timestamps.
	if enabled[RepairSort] {
		if !sort.SliceIsSorted(c.Events, func(i, j int) bool {
			return c.Events[i].Seq < c.Events[j].Seq
		}) {
			n := 0
			for i := 1; i < len(c.Events); i++ {
				if c.Events[i].Seq < c.Events[i-1].Seq {
					n++
				}
			}
			sort.SliceStable(c.Events, func(i, j int) bool {
				return c.Events[i].Seq < c.Events[j].Seq
			})
			rep.Reordered += n
			add(RepairSort, -1, "restored recording order (%d out-of-order boundaries)", n)
		}
	}

	if enabled[RepairDropDuplicates] {
		seen := make(map[int64]bool, len(c.Events))
		kept := c.Events[:0]
		for _, ev := range c.Events {
			if seen[ev.Seq] {
				rep.Dropped++
				add(RepairDropDuplicates, ev.Seq, "dropped duplicate of T%d %s %s", ev.Thread, ev.Class, ev.Call)
				continue
			}
			seen[ev.Seq] = true
			kept = append(kept, ev)
		}
		c.Events = kept
	}

	if enabled[RepairClampTimes] {
		prev := c.Header.Start
		if len(c.Events) > 0 && c.Events[0].Time < c.Header.Start {
			add(RepairClampTimes, -1, "moved header start %v back to first event at %v", c.Header.Start, c.Events[0].Time)
			c.Header.Start = c.Events[0].Time
			prev = c.Header.Start
		}
		for i := range c.Events {
			if c.Events[i].Time < prev {
				rep.Clamped++
				add(RepairClampTimes, c.Events[i].Seq, "clamped regressed time %v to %v", c.Events[i].Time, prev)
				c.Events[i].Time = prev
			}
			prev = c.Events[i].Time
		}
		if prev > c.Header.End {
			add(RepairClampTimes, -1, "extended header end %v to last event at %v", c.Header.End, prev)
			c.Header.End = prev
		}
	}

	// Structural walk: resolve dangling references and BEFORE/AFTER
	// pairing in one pass over the recording order.
	renumber := false
	if enabled[RepairDropOrphans] || enabled[RepairSynthesize] {
		threadKnown := make(map[ThreadID]bool, len(c.Threads))
		for _, t := range c.Threads {
			threadKnown[t.ID] = true
		}
		objKnown := make(map[ObjectID]bool, len(c.Objects))
		for _, o := range c.Objects {
			objKnown[o.ID] = true
		}
		open := make(map[ThreadID]Event)
		out := make([]Event, 0, len(c.Events))
		drop := func(ev Event, format string, args ...any) {
			rep.Dropped++
			add(RepairDropOrphans, ev.Seq, format, args...)
			renumber = true
		}
		synthAfter := func(before Event, at vtime.Time) {
			after := before
			after.Class = After
			after.Time = at
			rep.Synthesized++
			add(RepairSynthesize, before.Seq, "synthesized AFTER %s for T%d at %v", before.Call, before.Thread, at)
			out = append(out, after)
			renumber = true
		}
		for _, ev := range c.Events {
			if enabled[RepairDropOrphans] {
				if ev.Call == CallNone || ev.Call >= numCalls {
					drop(ev, "dropped event with invalid call %d", uint8(ev.Call))
					continue
				}
				if ev.Class != Before && ev.Class != After {
					drop(ev, "dropped event with invalid class %d", uint8(ev.Class))
					continue
				}
				if ev.Thread != 0 && !threadKnown[ev.Thread] {
					drop(ev, "dropped event of unknown thread %d", ev.Thread)
					continue
				}
				if ev.Object != 0 && !objKnown[ev.Object] {
					drop(ev, "dropped %s %s referencing unknown object %d", ev.Class, ev.Call, ev.Object)
					continue
				}
				if ev.Mutex != 0 && !objKnown[ev.Mutex] {
					drop(ev, "dropped %s %s referencing unknown mutex %d", ev.Class, ev.Call, ev.Mutex)
					continue
				}
			}
			switch ev.Class {
			case Before:
				if prevOpen, ok := open[ev.Thread]; ok {
					if prevOpen.Call == CallThrExit {
						// Nothing legitimately follows a thread's exit.
						if enabled[RepairDropOrphans] {
							drop(ev, "dropped event after thr_exit of T%d", ev.Thread)
							continue
						}
					} else if enabled[RepairSynthesize] {
						// The AFTER for the open call was lost; close it
						// just before this event so the pairing invariant
						// holds.
						synthAfter(prevOpen, ev.Time)
						delete(open, ev.Thread)
					}
				}
				if pairsWithAfter(ev.Call) {
					open[ev.Thread] = ev
				}
				out = append(out, ev)
			case After:
				prevOpen, ok := open[ev.Thread]
				if !ok || prevOpen.Call != ev.Call {
					if enabled[RepairDropOrphans] {
						drop(ev, "dropped AFTER %s without matching BEFORE", ev.Call)
						continue
					}
					out = append(out, ev)
					continue
				}
				delete(open, ev.Thread)
				out = append(out, ev)
			default:
				out = append(out, ev)
			}
		}
		if enabled[RepairSynthesize] && len(open) > 0 {
			// Truncation cut the log while these calls were in flight:
			// close them at the end of the recording, in thread order for
			// determinism. An open thr_exit is legitimate (it never
			// completes for the exiting thread).
			tids := make([]ThreadID, 0, len(open))
			for tid := range open {
				if open[tid].Call != CallThrExit {
					tids = append(tids, tid)
				}
			}
			sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
			end := c.Header.End
			if n := len(out); n > 0 && out[n-1].Time > end {
				end = out[n-1].Time
			}
			for _, tid := range tids {
				synthAfter(open[tid], end)
			}
		}
		c.Events = out
	}

	// Restore canonical sequence numbering and global order after
	// insertions or deletions changed the event list's shape.
	if renumber {
		for i := range c.Events {
			c.Events[i].Seq = int64(i)
		}
		add(RepairSort, -1, "renumbered %d events", len(c.Events))
	}
	if enabled[RepairSort] {
		c.SortEvents()
	}

	if _, idx, err := c.validate(); err != nil {
		ue := &UnrecoverableError{Index: idx, Err: err}
		if idx >= 0 && idx < len(c.Events) {
			ev := c.Events[idx]
			ue.Event = &ev
		}
		return nil, rep, ue
	}
	return c, rep, nil
}
