// Package vtime provides the virtual-time foundation shared by the
// execution substrate (internal/threadlib) and the trace-driven predictor
// (internal/core): a microsecond-resolution virtual clock, durations, a
// deterministic timer queue with one slot per pending event, and a small
// seeded random source.
//
// VPPB's Recorder stamps every event with wall-clock time at 1 microsecond
// resolution (paper, section 3.1). All times in this repository are virtual
// microseconds so that recorded logs, simulations and validation runs are
// bit-for-bit reproducible across machines.
package vtime

import (
	"fmt"
	"math"
)

// Time is an instant in virtual microseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Never is a sentinel Time larger than any reachable instant.
const Never Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the instant as seconds with microsecond precision,
// matching the log excerpts in the paper (e.g. "0.53").
func (t Time) String() string { return formatSeconds(int64(t)) }

// String formats the duration as seconds with microsecond precision.
func (d Duration) String() string { return formatSeconds(int64(d)) }

func formatSeconds(us int64) string {
	neg := ""
	if us < 0 {
		neg = "-"
		us = -us
	}
	sec := us / int64(Second)
	rem := us % int64(Second)
	// Trim trailing zeros but keep at least two decimals for readability.
	s := fmt.Sprintf("%06d", rem)
	for len(s) > 2 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return fmt.Sprintf("%s%d.%s", neg, sec, s)
}

// DurationOf parses floating-point seconds into a Duration, rounding to the
// nearest microsecond.
func DurationOf(seconds float64) Duration {
	return Duration(math.Round(seconds * float64(Second)))
}

// MinTime returns the smaller of two instants.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the larger of two instants.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
