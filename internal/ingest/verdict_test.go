package ingest_test

import (
	"errors"
	"testing"

	"vppb/internal/ingest"
	"vppb/internal/ingest/ingesttest"
	"vppb/internal/trace"
)

// TestIngestVerdicts runs the shared frontend inputs through Decode and
// Prepare: each is accepted, repaired with trace.Repair's summary, or
// refused, as its case says. The CLIs' and vppb-serve's verdict tests run
// the same inputs.
func TestIngestVerdicts(t *testing.T) {
	for _, c := range ingesttest.Cases(t) {
		got := ingesttest.Verdict{Outcome: ingesttest.Refused}
		log, err := ingest.Decode(c.Raw, ingest.FormatAuto, "")
		var p *ingest.Prepared
		if err == nil {
			p, err = ingest.Prepare(log, c.Strict)
		}
		switch {
		case err != nil:
		case p.Repair != nil:
			got = ingesttest.Verdict{Outcome: ingesttest.Repaired, Summary: p.Repair.Summary()}
		default:
			got = ingesttest.Verdict{Outcome: ingesttest.Accepted}
		}
		if got != c.Want {
			t.Errorf("%s: verdict %+v (err %v), want %+v", c.Name, got, err, c.Want)
		}
		var verr *trace.ValidationError
		var uerr *trace.UnrecoverableError
		switch {
		case c.Strict && c.Want.Outcome == ingesttest.Refused && !errors.As(err, &verr):
			t.Errorf("%s: strict refusal %v does not wrap a *trace.ValidationError", c.Name, err)
		case c.Name == "unrecoverable" && !errors.As(err, &uerr):
			t.Errorf("%s: %v is not a *trace.UnrecoverableError", c.Name, err)
		case p != nil && (p.Repair == nil) != (p.Invalid == nil):
			t.Errorf("%s: repair report %v without a validation error %v, or the reverse", c.Name, p.Repair, p.Invalid)
		}
	}
}
