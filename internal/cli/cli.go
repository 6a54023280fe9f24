// Package cli holds what the commands that read a recording (vppb-sim,
// vppb-analyze and vppb-view) share: the exit status of an invocation
// mistake, and reading a log under -format, -strict and -repair.
package cli

import (
	"errors"
	"fmt"
	"io"

	"vppb"
)

// UsageError marks an invocation mistake (as opposed to a runtime
// failure): the process exits with status 2, the conventional
// bad-command-line code.
type UsageError struct{ Err error }

func (u UsageError) Error() string { return u.Err.Error() }
func (u UsageError) Unwrap() error { return u.Err }

// Usagef is a UsageError with a formatted message.
func Usagef(format string, args ...any) error {
	return UsageError{fmt.Errorf(format, args...)}
}

// ExitCode maps a command's error to its process exit status.
func ExitCode(err error) int {
	var ue UsageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// ReadLog reads the log at path and prepares it for replay through
// vppb.PrepareLog, the repair policy every frontend shares. A repaired log
// is noted on stderr, in one line or, with report, as the full repair
// report. Every error names the path.
func ReadLog(tool, path, format string, strict, report bool, stderr io.Writer) (*vppb.PreparedLog, error) {
	log, err := vppb.ReadLogFormat(path, format)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := vppb.PrepareLog(log, strict)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case p.Repair == nil:
	case report:
		fmt.Fprintf(stderr, "%s: %s: corrupt log (%v)\n", tool, path, p.Invalid)
		fmt.Fprint(stderr, p.Repair.String())
	default:
		fmt.Fprintf(stderr, "%s: %s: corrupt log repaired: %s (-repair for details, -strict to fail)\n",
			tool, path, p.Repair.Summary())
	}
	return p, nil
}
