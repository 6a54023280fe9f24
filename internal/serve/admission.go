package serve

import (
	"context"
	"sync"
	"time"
)

// admission bounds how many simulation-heavy requests run at once. A
// request that cannot get a slot immediately waits in a short
// deadline-aware queue; past the wait (or the request deadline, whichever
// comes first) it is shed with 503 + Retry-After rather than piling up an
// unbounded goroutine backlog. Cheap endpoints (/metrics, /healthz,
// pprof) bypass admission entirely so the daemon stays observable while
// melting.
type admission struct {
	slots chan struct{}
	wait  time.Duration // max queue time; <= 0 sheds immediately when full
}

func newAdmission(max int, wait time.Duration) *admission {
	if max <= 0 {
		return nil // unlimited
	}
	return &admission{slots: make(chan struct{}, max), wait: wait}
}

// acquire claims a slot, waiting at most a.wait (bounded further by the
// request deadline). It returns the release func and whether the request
// was admitted.
func (a *admission) acquire(ctx context.Context) (func(), bool) {
	select {
	case a.slots <- struct{}{}:
		return a.release, true
	default:
	}
	if a.wait <= 0 {
		return nil, false
	}
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return a.release, true
	case <-timer.C:
		return nil, false
	case <-ctx.Done():
		return nil, false
	}
}

func (a *admission) release() { <-a.slots }

// inflight reports how many slots are currently held.
func (a *admission) inflight() int { return len(a.slots) }

// breakerSet trips a per-digest circuit breaker after repeated
// simulation failures. A trace whose replay keeps deadlocking or blowing
// its budget would otherwise burn a full event budget on every request;
// once tripped, requests for that digest fast-fail with 503 until the
// cooldown elapses, then one request is let through to probe again
// (failing re-trips immediately at the threshold).
type breakerSet struct {
	mu    sync.Mutex
	state map[string]*breakerState
	trips int64
}

// A breaker trips after breakerFailures consecutive simulation failures
// of its digest and then rejects requests for breakerCooldown.
const (
	breakerFailures = 3
	breakerCooldown = 10 * time.Second
)

type breakerState struct {
	fails     int
	openUntil time.Time
}

func newBreakerSet() *breakerSet {
	return &breakerSet{state: make(map[string]*breakerState)}
}

// allow reports whether a simulation for digest may start.
func (b *breakerSet) allow(digest string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.state[digest]
	if !ok {
		return true
	}
	if st.openUntil.IsZero() {
		return true
	}
	if time.Now().Before(st.openUntil) {
		return false
	}
	// Half-open: admit one probe; a failure re-trips at the threshold.
	st.openUntil = time.Time{}
	st.fails = breakerFailures - 1
	return true
}

// record notes a simulation outcome for digest; a success fully closes
// the breaker, a failure moves it toward (or past) the trip threshold.
func (b *breakerSet) record(digest string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		delete(b.state, digest)
		return
	}
	st := b.state[digest]
	if st == nil {
		st = &breakerState{}
		b.state[digest] = st
	}
	st.fails++
	if st.fails >= breakerFailures {
		st.openUntil = time.Now().Add(breakerCooldown)
		st.fails = 0
		b.trips++
	}
}

// tripsTotal returns how many times any breaker tripped.
func (b *breakerSet) tripsTotal() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
