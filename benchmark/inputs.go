package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"vppb/internal/core"
	"vppb/internal/faultinject"
	"vppb/internal/hb"
	"vppb/internal/ingest"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// traceSpec names one program of a workload's input set.
type traceSpec struct {
	key     string  // unique within the workload, e.g. "ocean_16t"
	program string  // internal/workloads name; empty for a committed capture
	threads int     // worker threads (ignored by fixed-structure programs)
	scale   float64 // data-set scale before the seed's ±10% jitter
	binary  bool    // uploaded as a VPPBLOG1 binary log instead of text
	file    string  // committed capture, relative to the repository root
	// weight is how many times the trace appears in one round of a client's
	// schedule (0 means once). The weights put the p50 and p95 of a
	// workload's latency inside one cluster of similar requests instead of
	// on the edge between two, where a one-request shift in the mix would
	// move them.
	weight int
}

// maxGridCPUs is the largest machine of the default prediction grid; an
// input with more threads oversubscribes every machine it is simulated on.
const maxGridCPUs = 8

func (s traceSpec) oversubscribed() bool { return s.threads > maxGridCPUs }

func (s traceSpec) times() int { return max(s.weight, 1) }

// input is one generated trace as the program under test receives it,
// plus the direct-ingest reference the outputs are checked against.
type input struct {
	spec  traceSpec
	scale float64
	// raw holds the uploaded bytes. Recorded programs carry a program name
	// ending in stampDigits decimal digits at stampAt; a request patches
	// those digits in a private copy, so every upload of the same trace is
	// new to the server while its length and its prediction stay the same.
	raw     []byte
	stampAt int // -1 when the bytes carry no stamp (committed captures)
	name    string
	// log is the recording the server builds from raw: decoded and, when it
	// fails validation, repaired. prof and an (on demand) are derived from it.
	log      *trace.Log
	prof     *trace.Profile
	repaired bool
	an       *hb.Analysis
}

const stampDigits = 12

// stampName is the program name of an input: its key and a fixed-width
// stamp.
func stampName(key string, stamp int64) string {
	return fmt.Sprintf("%s-%0*d", key, stampDigits, stamp)
}

// patchStamp overwrites the stamp digits of buf, which must be a copy of
// in.raw, and returns the program name now in buf.
func (in *input) patchStamp(buf []byte, stamp int64) string {
	if in.stampAt < 0 {
		return in.name
	}
	digits := buf[in.stampAt : in.stampAt+stampDigits]
	for i := stampDigits - 1; i >= 0; i-- {
		digits[i] = byte('0' + stamp%10)
		stamp /= 10
	}
	return string(buf[in.stampAt+stampDigits-len(in.name) : in.stampAt+stampDigits])
}

// record runs the monitored uniprocessor execution of a spec.
func record(spec traceSpec, scale float64, name string) (*trace.Log, error) {
	w, err := workloads.Get(spec.program)
	if err != nil {
		return nil, err
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Threads: spec.threads, Scale: scale}), recorder.Options{Program: name})
	return log, err
}

// encodeLog encodes a log the way a spec is uploaded.
func encodeLog(spec traceSpec, log *trace.Log) []byte {
	if spec.binary {
		return trace.AppendBinary(nil, log)
	}
	return trace.AppendText(nil, log)
}

// newInput records (or reads) one spec at the given scale, stamps its
// program name with stamp, and ingests the bytes directly as the reference.
func newInput(root string, spec traceSpec, scale float64, stamp int64) (*input, error) {
	if spec.file != "" {
		raw, err := os.ReadFile(filepath.Join(root, spec.file))
		if err != nil {
			return nil, err
		}
		return fromRaw(spec, scale, raw, "")
	}
	name := stampName(spec.key, stamp)
	log, err := record(spec, scale, name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.key, err)
	}
	return fromRaw(spec, scale, encodeLog(spec, log), name)
}

// fromRaw ingests uploaded bytes the way the server does and locates the
// stamp of name (empty for unstamped bytes).
func fromRaw(spec traceSpec, scale float64, raw []byte, name string) (*input, error) {
	in := &input{spec: spec, scale: scale, raw: raw, stampAt: -1, name: name}
	if name != "" {
		at := bytes.Index(raw, []byte(name))
		if at < 0 {
			return nil, fmt.Errorf("%s: program name not found in the encoded trace", spec.key)
		}
		in.stampAt = at + len(name) - stampDigits
	}
	log, err := ingest.Decode(raw, ingest.Detect(raw), "")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.key, err)
	}
	if log.Validate() != nil {
		fixed, _, err := trace.Repair(log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.key, err)
		}
		log, in.repaired = fixed, true
	}
	in.log = log
	if in.name == "" {
		in.name = log.Header.Program
	}
	if in.prof, err = trace.BuildProfile(log); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.key, err)
	}
	return in, nil
}

// analysis returns the happens-before analysis of the input's log,
// computing it once.
func (in *input) analysis() (*hb.Analysis, error) {
	if in.an != nil {
		return in.an, nil
	}
	a, err := hb.Analyze(in.log)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.spec.key, err)
	}
	in.an = a
	return a, nil
}

// corrupted returns a text upload of a faultinject-corrupted copy of
// clean's log. The generator picks the fault class and seed, redrawing
// until the copy fails validation and repair recovers it into a trace the
// server can simulate and analyse, so every such upload gets 200 with
// "repaired": true. Truncation is left out: it keeps anywhere from one
// event to all of them, so the seed alone would set the upload's cost.
func corrupted(clean *input, key string, stamp int64, rng *rand.Rand) (*input, error) {
	spec := traceSpec{key: key, program: clean.spec.program, threads: clean.spec.threads, scale: clean.spec.scale}
	var classes []faultinject.Class
	for _, c := range faultinject.Classes() {
		if c != faultinject.Truncate {
			classes = append(classes, c)
		}
	}
	for attempt := 0; attempt < 64; attempt++ {
		bad, _, err := faultinject.Inject(clean.log, classes[rng.Intn(len(classes))], rng.Int63())
		if err != nil {
			continue
		}
		bad.Header.Program = stampName(key, stamp)
		in, err := fromRaw(spec, clean.scale, trace.AppendText(nil, bad), bad.Header.Program)
		if err != nil || !in.repaired {
			continue
		}
		if _, err := in.analysis(); err != nil {
			continue
		}
		if _, err := core.SimulateProfile(in.prof, core.Machine{CPUs: 2}); err != nil {
			continue
		}
		return in, nil
	}
	return nil, fmt.Errorf("no recoverable corruption of %s found", clean.spec.key)
}

// garbage returns bytes no trace frontend recognizes.
func garbage(rng *rand.Rand, n int) []byte {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789 \n"
	b := []byte("garbage " + strconv.Itoa(rng.Intn(1_000_000)) + "\n")
	for len(b) < n {
		b = append(b, letters[rng.Intn(len(letters))])
	}
	if ingest.Detect(b) != "" {
		panic("benchmark: generated garbage was recognized as a trace")
	}
	return b
}
