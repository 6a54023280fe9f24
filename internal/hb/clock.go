package hb

// VectorClock is one event's position in the happens-before partial order:
// component t counts the events of thread index t that happened before (or
// at) the clocked event. Thread indices are dense (assigned in order of
// first appearance in the log), not ThreadIDs.
type VectorClock []uint32

// clone returns an independent copy of the clock.
func (v VectorClock) clone() VectorClock {
	c := make(VectorClock, len(v))
	copy(c, v)
	return c
}

// join folds other into v component-wise (v = max(v, other)).
func (v VectorClock) join(other VectorClock) {
	for i, o := range other {
		if o > v[i] {
			v[i] = o
		}
	}
}
