package threadlib

import (
	"os"
	"testing"

	"vppb/internal/sched"
)

func TestMain(m *testing.M) {
	// Run every test with exhaustive kernel invariant checking.
	sched.DebugChecks = true
	os.Exit(m.Run())
}
