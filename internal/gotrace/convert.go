package gotrace

import (
	"fmt"

	"vppb/internal/source"
	"vppb/internal/trace"
)

// Goroutine status codes carried by GoStatus / GoStatusStack events.
const (
	goBad = iota
	goRunnable
	goRunning
	goSyscall
	goWaiting
)

// depReasons are the block reasons where the goroutine is woken by an
// identifiable peer goroutine acting on a synchronization object. These
// become sema wait/post pairs in the converted log, so the Simulator can
// re-decide who blocks under a different CPU count. Every other reason
// (sleep, network, GC assist, ...) is a fixed-duration wait and becomes an
// io record against a FIFO device.
var depReasons = map[string]bool{
	"sync":                true,
	"sync.(*Cond).Wait":   true,
	"chan send":           true,
	"chan receive":        true,
	"select":              true,
	"GC assist wait":      false, // runtime-internal; duration-like
	"sync.WaitGroup.Wait": true,  // emitted by newer runtimes; older ones use "sync"
	"sync.Mutex.Lock":     true,  // likewise
	"sync.RWMutex.RLock":  true,
	"sync.RWMutex.Lock":   true,
}

// reasonLabel maps a block reason to the object-name label and object kind
// used in the converted log.
func reasonLabel(reason string) (string, trace.ObjectKind) {
	switch reason {
	case "sync", "sync.Mutex.Lock":
		return "mutex", trace.ObjMutex
	case "sync.RWMutex.RLock", "sync.RWMutex.Lock":
		return "rwlock", trace.ObjRWLock
	case "sync.(*Cond).Wait":
		return "cond", trace.ObjCond
	case "sync.WaitGroup.Wait":
		return "waitgroup", trace.ObjSema
	case "chan send":
		return "chan-send", trace.ObjSema
	case "chan receive":
		return "chan-recv", trace.ObjSema
	case "select":
		return "select", trace.ObjSema
	case "sleep":
		return "sleep", trace.ObjDevice
	case "network":
		return "net", trace.ObjDevice
	case "syscall":
		return "syscall", trace.ObjDevice
	case "":
		return "wait", trace.ObjDevice
	}
	label := make([]byte, 0, len(reason))
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		if c == ' ' || c == '(' || c == ')' || c == '*' {
			c = '-'
		}
		label = append(label, c)
	}
	return string(label), trace.ObjDevice
}

// opKind enumerates the intermediate per-goroutine operations the state
// machine extracts before the uni-processor layout pass.
type opKind uint8

const (
	opCreate opKind = iota // spawn another goroutine
	opWait                 // block on a synchronization object
	opPost                 // wake the next waiter of an object
	opIO                   // fixed-duration wait on a device
	opYield                // involuntary reschedule (GoStop)
	opExit                 // goroutine ends
)

// op is one operation with the CPU burst the goroutine consumed before it.
type op struct {
	kind   opKind
	timeNS uint64 // when the operation happened in the original run
	cpuNS  uint64 // CPU burst executed before the operation
	durNS  uint64 // service time of an opIO
	obj    int    // index into the converter's object table, -1 none
	target uint64 // goroutine ID spawned by an opCreate
	loc    source.Loc
}

// pendingBlock remembers an unresolved GoBlock (or syscall begin) until the
// matching wake event classifies it.
type pendingBlock struct {
	timeNS uint64
	cpuNS  uint64
	reason string
	loc    source.Loc
}

// gstate accumulates one goroutine's extracted operation stream.
type gstate struct {
	id       uint64
	order    int // first-seen order, for deterministic thread numbering
	fn       string
	ops      []op
	running  bool
	everRan  bool
	runStart uint64
	cpuNS    uint64 // burst accumulated since the last op
	blocked  *pendingBlock
	syscall  *pendingBlock
	creator  uint64 // goroutine that spawned this one; 0 unknown
	created  bool
	dead     bool
}

// objEntry is one synchronization object discovered during conversion.
type objEntry struct {
	kind trace.ObjectKind
	name string
	loc  source.Loc
}

// converter holds the whole-trace conversion state.
type converter struct {
	gs      map[uint64]*gstate
	order   []uint64 // goroutine IDs in first-seen order
	objs    []objEntry
	objIdx  map[string]int
	curG    map[uint64]uint64 // M -> current goroutine, within one generation
	minTick uint64
	freq    uint64
	endNS   uint64
}

// Options configures Convert.
type Options struct {
	// Program names the converted recording; "gotrace" if empty. vppb-serve
	// leaves it empty so equal uploads produce byte-identical predictions.
	Program string
}

// Convert parses a Go runtime execution trace and rebuilds it as a
// 1-CPU/1-LWP vppb recording: goroutines become threads, goroutine state
// transitions become thread-library call events, and block/wake pairs
// become operations on synthesized synchronization objects attributed to
// the blocking source line. The result passes trace.Log Validate; any
// malformed input yields an error, never a panic.
func Convert(data []byte, opts Options) (*trace.Log, error) {
	gens, err := parse(data)
	if err != nil {
		return nil, err
	}
	c := &converter{
		gs:     make(map[uint64]*gstate),
		objIdx: make(map[string]int),
	}
	// Normalize all timestamps against the earliest event of the earliest
	// generation so converted times start near zero.
	first := gens[0]
	if len(first.events) == 0 {
		return nil, fmt.Errorf("gotrace: trace has no timed events")
	}
	c.minTick = first.events[0].tick
	for _, g := range gens {
		c.curG = make(map[uint64]uint64) // M identity restarts per generation
		c.freq = g.freq
		for _, ev := range g.events {
			c.apply(g, ev)
		}
	}
	c.finish()

	log, err := c.layout(opts.Program)
	if err != nil {
		return nil, err
	}
	if err := log.Validate(); err != nil {
		return nil, fmt.Errorf("gotrace: converted log is inconsistent: %w", err)
	}
	return log, nil
}

// ns converts an absolute tick to nanoseconds since the trace start.
func (c *converter) ns(tick uint64) uint64 {
	if tick <= c.minTick {
		return 0
	}
	return uint64(float64(tick-c.minTick) * (1e9 / float64(c.freq)))
}

// g returns the state of a goroutine, creating it on first sight.
func (c *converter) g(id uint64) *gstate {
	if gs, ok := c.gs[id]; ok {
		return gs
	}
	gs := &gstate{id: id, order: len(c.order)}
	c.gs[id] = gs
	c.order = append(c.order, id)
	return gs
}

// cur returns the goroutine currently on M m, or nil if unknown (the trace
// can legitimately name Ms we have no GoStart for, e.g. the sysmon thread).
func (c *converter) cur(m uint64) *gstate {
	id, ok := c.curG[m]
	if !ok {
		return nil
	}
	return c.g(id)
}

// checkpoint folds running time up to now into the goroutine's pending
// CPU burst.
func (c *converter) checkpoint(gs *gstate, nowNS uint64) {
	if gs.running && nowNS > gs.runStart {
		gs.cpuNS += nowNS - gs.runStart
	}
	gs.runStart = nowNS
}

// take consumes the accumulated burst.
func (gs *gstate) take() uint64 {
	v := gs.cpuNS
	gs.cpuNS = 0
	return v
}

// site picks the application-level frame of a stack: the first frame not
// inside the runtime or the standard synchronization wrappers, else the
// outermost frame. File paths are reduced to their last two components so
// converted logs do not depend on the capture machine's filesystem.
func (c *converter) site(g *generation, stackID uint64) source.Loc {
	frames := g.stacks[stackID]
	if len(frames) == 0 {
		return source.Loc{}
	}
	chosen := frames[len(frames)-1]
	for _, f := range frames {
		if !runtimeFrame(g.stringAt(f.fn)) {
			chosen = f
			break
		}
	}
	return source.Loc{
		File: source.Base(g.stringAt(chosen.file)),
		Line: int(chosen.line),
	}
}

func runtimeFrame(fn string) bool {
	for _, p := range []string{"runtime.", "runtime/", "sync.", "time.", "syscall.", "os.", "internal/poll.", "net.", "internal/"} {
		if len(fn) >= len(p) && fn[:len(p)] == p {
			return true
		}
	}
	return fn == ""
}

// object interns a synchronization object keyed by namespace (sync vs
// device), block reason and source site.
func (c *converter) object(ns, reason string, loc source.Loc, kind trace.ObjectKind) int {
	label, _ := reasonLabel(reason)
	key := ns + "\x00" + reason + "\x00" + loc.String()
	if i, ok := c.objIdx[key]; ok {
		return i
	}
	name := label
	if !loc.IsZero() {
		name = fmt.Sprintf("%s@%s", label, loc)
	}
	c.objs = append(c.objs, objEntry{kind: kind, name: name, loc: loc})
	i := len(c.objs) - 1
	c.objIdx[key] = i
	return i
}

func (c *converter) syncObject(reason string, loc source.Loc) int {
	_, kind := reasonLabel(reason)
	if kind == trace.ObjDevice {
		kind = trace.ObjSema
	}
	return c.object("sync", reason, loc, kind)
}

func (c *converter) devObject(reason string, loc source.Loc) int {
	return c.object("dev", reason, loc, trace.ObjDevice)
}

// apply advances the state machine by one wire event.
func (c *converter) apply(g *generation, ev wireEvent) {
	now := c.ns(ev.tick)
	if now > c.endNS {
		c.endNS = now
	}
	switch ev.typ {
	case evGoCreate, evGoCreateBlocked:
		child := c.g(ev.args[0])
		child.fn = topFunc(g, ev.args[1])
		if creator := c.cur(ev.m); creator != nil {
			c.checkpoint(creator, now)
			creator.ops = append(creator.ops, op{
				kind: opCreate, timeNS: now, cpuNS: creator.take(), obj: -1,
				target: ev.args[0], loc: c.site(g, ev.args[2]),
			})
			child.creator, child.created = creator.id, true
		}
		if ev.typ == evGoCreateBlocked {
			child.blocked = &pendingBlock{timeNS: now}
		}

	case evGoCreateSyscall:
		c.g(ev.args[0]) // cgo callback goroutine; existence only

	case evGoStart:
		gs := c.g(ev.args[0])
		c.curG[ev.m] = gs.id
		gs.running, gs.everRan = true, true
		gs.runStart = now

	case evGoStatus, evGoStatusStack:
		gs := c.g(ev.args[0])
		switch ev.args[2] {
		case goRunning:
			c.curG[ev.args[1]] = gs.id
			if !gs.running {
				gs.running, gs.runStart = true, now
			}
			gs.everRan = true
		case goSyscall:
			c.curG[ev.args[1]] = gs.id
			if gs.syscall == nil {
				gs.syscall = &pendingBlock{timeNS: now, reason: "syscall"}
			}
			gs.everRan = true
		case goWaiting:
			if gs.blocked == nil {
				gs.blocked = &pendingBlock{timeNS: now}
			}
		}

	case evGoBlock:
		if gs := c.cur(ev.m); gs != nil {
			c.checkpoint(gs, now)
			gs.running = false
			gs.blocked = &pendingBlock{
				timeNS: now, cpuNS: gs.take(),
				reason: g.stringAt(ev.args[0]), loc: c.site(g, ev.args[1]),
			}
			delete(c.curG, ev.m)
		}

	case evGoStop:
		if gs := c.cur(ev.m); gs != nil {
			c.checkpoint(gs, now)
			gs.running = false
			gs.ops = append(gs.ops, op{kind: opYield, timeNS: now, cpuNS: gs.take(), obj: -1, loc: c.site(g, ev.args[1])})
			delete(c.curG, ev.m)
		}

	case evGoDestroy, evGoDestroySyscall:
		if gs := c.cur(ev.m); gs != nil {
			c.checkpoint(gs, now)
			gs.running = false
			gs.ops = append(gs.ops, op{kind: opExit, timeNS: now, cpuNS: gs.take(), obj: -1})
			gs.dead = true
			delete(c.curG, ev.m)
		}

	case evGoUnblock:
		target := c.g(ev.args[0])
		if target.blocked == nil {
			return
		}
		b := target.blocked
		target.blocked = nil
		waker := c.cur(ev.m)
		if depReasons[b.reason] && waker != nil && waker.id != target.id {
			obj := c.syncObject(b.reason, b.loc)
			target.ops = append(target.ops, op{kind: opWait, timeNS: b.timeNS, cpuNS: b.cpuNS, obj: obj, loc: b.loc})
			c.checkpoint(waker, now)
			waker.ops = append(waker.ops, op{kind: opPost, timeNS: now, cpuNS: waker.take(), obj: obj, loc: c.site(g, ev.args[2])})
		} else {
			dur := uint64(0)
			if now > b.timeNS {
				dur = now - b.timeNS
			}
			obj := c.devObject(b.reason, b.loc)
			target.ops = append(target.ops, op{kind: opIO, timeNS: b.timeNS, cpuNS: b.cpuNS, durNS: dur, obj: obj, loc: b.loc})
		}

	case evGoSyscallBegin:
		if gs := c.cur(ev.m); gs != nil {
			c.checkpoint(gs, now)
			gs.running = false
			gs.syscall = &pendingBlock{timeNS: now, cpuNS: gs.take(), reason: "syscall", loc: c.site(g, ev.args[1])}
		}

	case evGoSyscallEnd, evGoSyscallEndBlock:
		if gs := c.cur(ev.m); gs != nil && gs.syscall != nil {
			s := gs.syscall
			gs.syscall = nil
			dur := uint64(0)
			if now > s.timeNS {
				dur = now - s.timeNS
			}
			gs.ops = append(gs.ops, op{kind: opIO, timeNS: s.timeNS, cpuNS: s.cpuNS, durNS: dur, obj: c.devObject("syscall", s.loc), loc: s.loc})
			if ev.typ == evGoSyscallEnd {
				gs.running, gs.runStart = true, now
			} else {
				delete(c.curG, ev.m) // lost its P; a later GoStart resumes it
			}
		}

	case evGoSwitch, evGoSwitchDestroy:
		if old := c.cur(ev.m); old != nil {
			c.checkpoint(old, now)
			old.running = false
			kind := opYield
			if ev.typ == evGoSwitchDestroy {
				kind = opExit
				old.dead = true
			}
			old.ops = append(old.ops, op{kind: kind, timeNS: now, cpuNS: old.take(), obj: -1})
		}
		next := c.g(ev.args[0])
		next.blocked = nil // coroutine switches wake without GoUnblock
		c.curG[ev.m] = next.id
		next.running, next.everRan = true, true
		next.runStart = now
	}
	// Proc, GC, STW, heap and user-annotation events carry no thread-model
	// information for the converted log and are deliberately ignored.
}

// topFunc names the entry function of a goroutine-start stack.
func topFunc(g *generation, stackID uint64) string {
	frames := g.stacks[stackID]
	if len(frames) == 0 {
		return ""
	}
	return g.stringAt(frames[0].fn)
}

// finish closes every live goroutine at the end of the trace: running and
// runnable goroutines get a final thr_exit carrying their residual CPU;
// goroutines still blocked keep their truncated stream (their unresolved
// wait is dropped as unknowable).
func (c *converter) finish() {
	for _, id := range c.order {
		gs := c.gs[id]
		if gs.dead || gs.blocked != nil || gs.syscall != nil {
			continue
		}
		if !gs.everRan && len(gs.ops) == 0 {
			continue
		}
		c.checkpoint(gs, c.endNS)
		gs.ops = append(gs.ops, op{kind: opExit, timeNS: c.endNS, cpuNS: gs.take(), obj: -1})
	}
}
