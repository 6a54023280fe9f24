package vppb

import (
	"testing"

	"vppb/internal/experiments"
	"vppb/internal/faultinject"
	"vppb/internal/trace"
)

// One benchmark per table and figure of the paper's evaluation, each
// regenerating the artifact through the same driver cmd/vppb-bench uses.
// Reduced scales keep iterations short; `go run ./cmd/vppb-bench` produces
// the full-scale numbers recorded in EXPERIMENTS.md.

var benchOpts = experiments.Options{Scale: 0.3, Runs: 3}

// BenchmarkTable1 regenerates the whole of Table 1 (five applications,
// three machine sizes, predictions plus seeded reference runs).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-cell benchmarks of Table 1: the prediction pipeline (monitored
// recording plus trace-driven simulation) for each application at eight
// processors, the paper's headline column.
func benchPredict(b *testing.B, app string, cpus int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		log, err := RecordWorkload(app, WorkloadParams{Threads: cpus, Scale: benchOpts.Scale})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Simulate(log, Machine{CPUs: cpus}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Ocean_8P(b *testing.B)        { benchPredict(b, "ocean", 8) }
func BenchmarkTable1_WaterSpatial_8P(b *testing.B) { benchPredict(b, "waterspatial", 8) }
func BenchmarkTable1_FFT_8P(b *testing.B)          { benchPredict(b, "fft", 8) }
func BenchmarkTable1_Radix_8P(b *testing.B)        { benchPredict(b, "radix", 8) }
func BenchmarkTable1_LU_8P(b *testing.B)           { benchPredict(b, "lu", 8) }
func BenchmarkTable1_Ocean_2P(b *testing.B)        { benchPredict(b, "ocean", 2) }
func BenchmarkTable1_Ocean_4P(b *testing.B)        { benchPredict(b, "ocean", 4) }

// BenchmarkFig2_RecorderOutput regenerates figure 2 (the example program's
// recorded listing).
func BenchmarkFig2_RecorderOutput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_SortLog regenerates figure 4 (the per-thread sorting of
// the log).
func BenchmarkFig4_SortLog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_Render regenerates figure 5 (both graphs of a simulated
// execution, ASCII and SVG).
func BenchmarkFig5_Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCase5_Naive predicts the naive producer/consumer program of
// section 5 on eight processors (figure 6's subject).
func BenchmarkCase5_Naive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, err := RecordWorkload("prodcons", WorkloadParams{Scale: benchOpts.Scale})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := PredictSpeedup(log, Machine{CPUs: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCase5_Improved predicts the improved program (figure 7's
// subject).
func BenchmarkCase5_Improved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, err := RecordWorkload("prodconsopt", WorkloadParams{Scale: benchOpts.Scale})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := PredictSpeedup(log, Machine{CPUs: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverhead_Intrusion measures the section-4 recording-intrusion
// experiment (five applications, monitored vs bare).
func BenchmarkOverhead_Intrusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Overhead(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogStats_Sizes measures the section-4 log-size experiment.
func BenchmarkLogStats_Sizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LogStats(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks (A1-A3 in DESIGN.md).
func BenchmarkAblationBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBound(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCommDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCommDelay(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLWPs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLWPs(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIOExtension measures the E8 I/O experiment (disk-bound
// dbserver, prediction vs reference).
func BenchmarkIOExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IOExtension(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// Component micro-benchmarks: the three VPPB stages in isolation on the
// densest workload (Ocean at eight threads).

func oceanLog(b *testing.B) *Log {
	b.Helper()
	log, err := RecordWorkload("ocean", WorkloadParams{Threads: 8, Scale: benchOpts.Scale})
	if err != nil {
		b.Fatal(err)
	}
	return log
}

// BenchmarkRecorder_Ocean8 measures a full monitored execution.
func BenchmarkRecorder_Ocean8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = oceanLog(b)
	}
}

// BenchmarkSimulator_Ocean8 measures a trace-driven replay alone.
func BenchmarkSimulator_Ocean8(b *testing.B) {
	log := oceanLog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(log, Machine{CPUs: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVisualizer_Ocean8 measures rendering both graphs.
func BenchmarkVisualizer_Ocean8(b *testing.B) {
	log := oceanLog(b)
	res, err := Simulate(log, Machine{CPUs: 8})
	if err != nil {
		b.Fatal(err)
	}
	view, err := NewView(res.Timeline)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RenderASCII(view, ASCIIOptions{Width: 120, MaxFlowRows: 16})
		_ = RenderSVG(view, SVGOptions{})
	}
}

// Profile-sharing benchmarks: the tentpole of the concurrent prediction
// pipeline. BuildProfile in isolation, a simulation that reuses a
// prebuilt profile vs one that rebuilds it per call, and the parallel
// sweep over one shared profile.

// BenchmarkBuildProfile_Ocean8 measures deriving the behaviour profile
// (per-thread split, burst extraction, call records) alone.
func BenchmarkBuildProfile_Ocean8(b *testing.B) {
	log := oceanLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildProfile(log); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogDecode_Text and ..._Binary measure decoding an in-memory
// upload, the first step of every ingest.
func BenchmarkLogDecode_Text(b *testing.B)   { benchDecode(b, MarshalLogText) }
func BenchmarkLogDecode_Binary(b *testing.B) { benchDecode(b, MarshalLogBinary) }

func benchDecode(b *testing.B, encode func(*Log) []byte) {
	data := encode(oceanLog(b))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepair_Prodcons measures repairing an upload, one corruption
// class per sub-benchmark, on the prodcons recording upload-cold corrupts.
// Truncation is left out: its cut, not the repair, sets the log's size.
func BenchmarkRepair_Prodcons(b *testing.B) {
	log, err := RecordWorkload("prodcons", WorkloadParams{Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, class := range CorruptionClasses() {
		if class == faultinject.Truncate {
			continue
		}
		bad, _, err := CorruptLog(log, class, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(class), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := trace.Repair(bad); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateProfile_Shared replays a prebuilt, shared profile —
// what every simulation after the first costs under profile reuse.
func BenchmarkSimulateProfile_Shared(b *testing.B) {
	log := oceanLog(b)
	prof, err := BuildProfile(log)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateProfile(prof, Machine{CPUs: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateProfile_Rebuild is the old cost model: profile rebuilt
// on every simulation (what Simulate does). The Shared/Rebuild gap is the
// per-simulation saving of profile reuse.
func BenchmarkSimulateProfile_Rebuild(b *testing.B) {
	log := oceanLog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(log, Machine{CPUs: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep_FFT measures the -sweep fan-out: one shared profile, the
// uniprocessor baseline plus four machine sizes over the worker pool.
func BenchmarkSweep_FFT(b *testing.B) {
	log, err := RecordWorkload("fft", WorkloadParams{Threads: 8, Scale: benchOpts.Scale})
	if err != nil {
		b.Fatal(err)
	}
	prof, err := BuildProfile(log)
	if err != nil {
		b.Fatal(err)
	}
	machines := []Machine{{CPUs: 1}, {CPUs: 2}, {CPUs: 4}, {CPUs: 8}, {CPUs: 16}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateMany(prof, machines); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogEncode_Binary and ..._Text measure the log codecs.
func BenchmarkLogEncode_Binary(b *testing.B) {
	log := oceanLog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := MarshalLogBinary(log)
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkLogEncode_Text(b *testing.B) {
	log := oceanLog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := MarshalLogText(log)
		b.SetBytes(int64(len(data)))
	}
}
