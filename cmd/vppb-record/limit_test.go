package main

import (
	"strings"
	"testing"
)

// TestThreadsBeyondLWPLimit: a workload that asks thr_setconcurrency for
// more LWPs than any machine may have fails at record time, instead of
// producing a log the Simulator refuses.
func TestThreadsBeyondLWPLimit(t *testing.T) {
	_, _, err := runCmd(t, "-workload", "fft", "-threads", "4097", "-scale", "0.1")
	if err == nil || !strings.Contains(err.Error(), "thr_setconcurrency 4097 exceeds the limit of 4096 LWPs") {
		t.Fatalf("err = %v, want the LWP limit error", err)
	}
}
