package vtime

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(5 * Second)
	if t1 != Time(5_000_000) {
		t.Fatalf("Add: got %d, want 5000000", t1)
	}
	if d := t1.Sub(t0); d != 5*Second {
		t.Fatalf("Sub: got %v, want 5s", d)
	}
	if s := t1.Seconds(); s != 5.0 {
		t.Fatalf("Seconds: got %v, want 5", s)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		us   int64
		want string
	}{
		{0, "0.00"},
		{100_000, "0.10"},
		{530_000, "0.53"},
		{1_000_000, "1.00"},
		{1_234_567, "1.234567"},
		{-250_000, "-0.25"},
		{800_000, "0.80"},
	}
	for _, c := range cases {
		if got := Time(c.us).String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.us, got, c.want)
		}
	}
}

func TestDurationOf(t *testing.T) {
	if d := DurationOf(0.5); d != 500*Millisecond {
		t.Fatalf("DurationOf(0.5) = %v", d)
	}
	if d := DurationOf(1e-6); d != Microsecond {
		t.Fatalf("DurationOf(1e-6) = %v", d)
	}
	if d := DurationOf(0); d != 0 {
		t.Fatalf("DurationOf(0) = %v", d)
	}
}

func TestMinMaxTime(t *testing.T) {
	if MinTime(3, 7) != 3 || MinTime(7, 3) != 3 {
		t.Fatal("MinTime wrong")
	}
	if MaxTime(3, 7) != 7 || MaxTime(7, 3) != 7 {
		t.Fatal("MaxTime wrong")
	}
}

// addSlots returns a queue with n disarmed slots.
func addSlots(n int) *Timers {
	var h Timers
	for range n {
		h.Add()
	}
	return &h
}

// popTimer unlists and returns the earliest listed slot and its time.
func popTimer(t *testing.T, h *Timers) (int32, Time) {
	t.Helper()
	slot, at, _, ok := h.Peek()
	if !ok {
		t.Fatal("pop from an empty queue")
	}
	h.Disarm(slot)
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	return slot, at
}

func TestQueueOrdersByTime(t *testing.T) {
	h := addSlots(3)
	h.Arm(2, 30)
	h.Arm(0, 10)
	h.Arm(1, 20)
	for i := range int32(3) {
		slot, at := popTimer(t, h)
		if slot != i {
			t.Fatalf("pop %d: got slot %d, want %d", i, slot, i)
		}
		if at != Time((i+1)*10) {
			t.Fatalf("pop %d: time %d", i, at)
		}
	}
	if h.Len() != 0 {
		t.Fatal("queue not empty")
	}
	if _, _, _, ok := h.Peek(); ok {
		t.Fatal("Peek on an empty queue reported a timer")
	}
}

func TestQueueFIFOAtEqualTimes(t *testing.T) {
	h := addSlots(100)
	for i := range int32(100) {
		h.Arm(99-i, 42)
	}
	for i := range int32(100) {
		if slot, _ := popTimer(t, h); slot != 99-i {
			t.Fatalf("tie-break violated: got slot %d at pop %d, want %d", slot, i, 99-i)
		}
	}
}

// TestQueueRekey: arming a listed slot re-keys it in place: the queue
// keeps one entry per slot, ordered by the latest arm, and a re-arm at
// the same instant takes a fresh seq, so it goes behind the slots armed
// for that instant before it.
func TestQueueRekey(t *testing.T) {
	h := addSlots(3)
	h.Arm(0, 10)
	h.Arm(1, 20)
	h.Arm(2, 30)
	_, seq0, _ := h.Key(0)
	h.Arm(0, 40) // later
	h.Arm(2, 5)  // earlier
	h.Arm(1, 20) // same instant
	if h.Len() != 3 {
		t.Fatalf("%d listed after re-keys, want 3", h.Len())
	}
	if at, seq, ok := h.Key(0); !ok || at != 40 || seq <= seq0 {
		t.Fatalf("slot 0 keyed (%v, %d, %v), want time 40 at a seq after %d", at, seq, ok, seq0)
	}
	for _, want := range []int32{2, 1, 0} {
		if slot, _ := popTimer(t, h); slot != want {
			t.Fatalf("popped slot %d, want %d", slot, want)
		}
	}
	h.Arm(0, 7)
	h.Arm(1, 7)
	h.Arm(0, 7)
	if slot, _ := popTimer(t, h); slot != 1 {
		t.Fatalf("slot 0 re-armed at the same instant popped before slot 1")
	}
}

// TestQueueDisarm: a disarmed slot is never delivered, disarming one that
// is not listed changes nothing, and a disarmed slot can be armed again.
func TestQueueDisarm(t *testing.T) {
	h := addSlots(4)
	for i := range int32(4) {
		h.Arm(i, Time(10*i))
	}
	h.Disarm(0) // the top
	h.Disarm(2) // an inner entry
	h.Disarm(2) // already disarmed
	if _, _, ok := h.Key(2); ok || h.Len() != 2 {
		t.Fatalf("after disarms: slot 2 listed %v, %d listed; want unlisted and 2", ok, h.Len())
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	h.Arm(0, 25)
	for _, want := range []int32{1, 0, 3} {
		if slot, _ := popTimer(t, h); slot != want {
			t.Fatalf("popped slot %d, want %d", slot, want)
		}
	}
	if h.Len() != 0 {
		t.Fatal("queue not empty")
	}
}

// TestQueueCheck: Check names a slot whose heap entry holds another slot
// and a heap entry no slot lists.
func TestQueueCheck(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mutate     func(h *Timers)
	}{
		{"slot and heap disagree", "which holds another slot", func(h *Timers) {
			h.pos[0], h.pos[1] = h.pos[1], h.pos[0]
		}},
		{"heap entry without a slot", "timers in the heap", func(h *Timers) {
			h.heap = append(h.heap, timer{slot: 2})
		}},
	} {
		h := addSlots(3)
		h.Arm(0, 10)
		h.Arm(1, 20)
		if err := h.Check(); err != nil {
			t.Fatalf("%s: consistent queue: %v", tc.name, err)
		}
		tc.mutate(h)
		if err := h.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want an error with %q", tc.name, err, tc.want)
		}
	}
}

// Property: popping everything always yields non-decreasing timestamps,
// and the multiset of timestamps is preserved.
func TestQueueSortedProperty(t *testing.T) {
	f := func(times []int16) bool {
		h := addSlots(len(times))
		in := make([]int64, len(times))
		for i, v := range times {
			h.Arm(int32(i), Time(v))
			in[i] = int64(v)
		}
		out := make([]int64, 0, len(times))
		prev := Time(-1 << 62)
		for h.Len() > 0 {
			slot, at, _, _ := h.Peek()
			h.Disarm(slot)
			if at < prev {
				return false
			}
			prev = at
			out = append(out, int64(at))
		}
		sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
		if len(in) != len(out) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := true
	a = NewRand(7)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(2)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(3)
	const d = 1000 * Microsecond
	for i := 0; i < 10000; i++ {
		j := r.Jitter(d, 0.1)
		if j < 900 || j > 1100 {
			t.Fatalf("jitter out of bounds: %d", j)
		}
	}
	if r.Jitter(d, 0) != d {
		t.Fatal("zero amp must be identity")
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Fatal("zero duration must stay zero")
	}
}
