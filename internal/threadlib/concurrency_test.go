package threadlib

import (
	"fmt"
	"strings"
	"testing"

	"vppb/internal/sched"
)

// TestSetConcurrencyLimit: a thr_setconcurrency beyond sched.MaxCPUs
// fails the run with the Simulator's limit error and the call's source
// location, on a fixed pool (the recorder's, whose log a dynamic-pool
// replay would honour) as on a dynamic one. The limit itself is accepted.
func TestSetConcurrencyLimit(t *testing.T) {
	want := fmt.Sprintf("thr_setconcurrency %d exceeds the limit of %d LWPs at ", sched.MaxCPUs+1, sched.MaxCPUs)
	for _, lwps := range []int{0, 1} {
		p := NewProcess(Config{CPUs: 1, LWPs: lwps, Costs: zeroCosts()})
		_, err := p.Run(func(th *Thread) { th.SetConcurrency(sched.MaxCPUs + 1) })
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "concurrency_test.go") {
			t.Errorf("LWPs=%d: err = %v, want %q and this file's location", lwps, err, want)
		}
		p = NewProcess(Config{CPUs: 1, LWPs: lwps, Costs: zeroCosts()})
		if _, err := p.Run(func(th *Thread) { th.SetConcurrency(sched.MaxCPUs) }); err != nil {
			t.Errorf("LWPs=%d: a request at the limit fails: %v", lwps, err)
		}
	}
}
