// Package vppb is a Go reproduction of VPPB ("Visualization of Parallel
// Program Behaviour", Broberg, Lundberg and Grahn, IPPS/SPDP 1998): a
// performance prediction and visualization tool that, from a single
// monitored uni-processor execution of a multithreaded program, predicts
// and visualizes the program's behaviour on a multiprocessor with any
// number of processors, LWPs and scheduling parameters.
//
// The workflow mirrors the paper's figure 1:
//
//	program --(monitored uni-processor run)--> Log          (Recorder)
//	Log + Machine --------------------------> SimResult     (Simulator)
//	SimResult.Timeline ----------------------> graphs       (Visualizer)
//
// Programs are written against a Solaris-2.x-style thread API provided by
// the virtual-time execution substrate: create a Process, build the
// program with NewMutex / NewSema / NewCond / NewRWLock and a main body
// using Thread methods (Create, Join, Compute, ...), then Record it and
// Simulate the recording:
//
//	setup := func(p *vppb.Process) func(*vppb.Thread) {
//	    m := p.NewMutex("lock")
//	    return func(t *vppb.Thread) {
//	        worker := func(w *vppb.Thread) {
//	            m.Lock(w); w.Compute(5 * vppb.Millisecond); m.Unlock(w)
//	        }
//	        a := t.Create(worker)
//	        t.Join(a)
//	    }
//	}
//	log, _, err := vppb.Record(setup, vppb.RecordOptions{Program: "demo"})
//	res, err := vppb.Simulate(log, vppb.Machine{CPUs: 8})
//	view, err := vppb.NewView(res.Timeline)
//	fmt.Println(vppb.RenderASCII(view, vppb.ASCIIOptions{}))
//
// The workloads of the paper's evaluation (five SPLASH-2 analogues and the
// section-5 producer/consumer case study) ship in the registry reachable
// through Workloads and GetWorkload, and the experiments that regenerate
// every table and figure are exposed via the Experiment functions in this
// package and the vppb-bench command.
package vppb

import (
	"context"

	"vppb/internal/analysis"
	"vppb/internal/core"
	"vppb/internal/experiments"
	"vppb/internal/faultinject"
	"vppb/internal/gotrace"
	"vppb/internal/hb"
	"vppb/internal/ingest"
	"vppb/internal/metrics"
	"vppb/internal/recorder"
	"vppb/internal/sched"
	"vppb/internal/threadlib"
	"vppb/internal/trace"
	"vppb/internal/viz"
	"vppb/internal/vtime"
	"vppb/internal/workloads"
)

// Virtual time.
type (
	// Time is an instant in virtual microseconds.
	Time = vtime.Time
	// Duration is a span of virtual microseconds.
	Duration = vtime.Duration
)

// Common durations.
const (
	Microsecond = vtime.Microsecond
	Millisecond = vtime.Millisecond
	Second      = vtime.Second
)

// Execution substrate (the Solaris-style thread library).
type (
	// Process is a program instance on the virtual-time substrate.
	Process = threadlib.Process
	// ProcessConfig parameterizes a Process.
	ProcessConfig = threadlib.Config
	// CostModel prices thread-library operations.
	CostModel = threadlib.CostModel
	// Thread is the handle a program body receives.
	Thread = threadlib.Thread
	// Mutex, Sema, Cond and RWLock are the synchronization primitives.
	Mutex  = threadlib.Mutex
	Sema   = threadlib.Sema
	Cond   = threadlib.Cond
	RWLock = threadlib.RWLock
	// RunResult summarizes an execution-driven run.
	RunResult = threadlib.Result
)

// NewProcess creates a program instance; see threadlib.NewProcess.
func NewProcess(cfg ProcessConfig) *Process { return threadlib.NewProcess(cfg) }

// DefaultCosts returns the substrate's default cost model.
func DefaultCosts() CostModel { return threadlib.DefaultCosts() }

// Thread creation options.
var (
	WithName     = threadlib.WithName
	WithPriority = threadlib.WithPriority
	Bound        = threadlib.Bound
	BoundToCPU   = threadlib.BoundToCPU
)

// Trace model.
type (
	// Log is a recording — the "recorded information" of figure 1.
	Log = trace.Log
	// Event is one probe firing.
	Event = trace.Event
	// ThreadID identifies a thread (main = 1, created threads from 4).
	ThreadID = trace.ThreadID
	// ObjectID identifies a synchronization object.
	ObjectID = trace.ObjectID
	// Timeline describes an execution for the Visualizer.
	Timeline = trace.Timeline
	// LogStats summarises a recording.
	LogStats = trace.Stats
)

// Recorder.
type (
	// RecordOptions configures a monitored execution.
	RecordOptions = recorder.Options
	// ProgramSetup builds a program against a process.
	ProgramSetup = recorder.Setup
)

// Record performs a monitored uni-processor execution and returns its log.
func Record(setup ProgramSetup, opts RecordOptions) (*Log, *RunResult, error) {
	return recorder.Record(setup, opts)
}

// WriteLog stores a log (binary when the path ends in ".bin", else text).
func WriteLog(path string, log *Log) error { return recorder.WriteFile(path, log) }

// ReadLog loads a log written by WriteLog, auto-detecting the format.
func ReadLog(path string) (*Log, error) { return recorder.ReadFile(path) }

// Trace ingestion formats: native vppb recordings and Go runtime
// execution traces (the `go tool trace` format).
const (
	FormatAuto    = ingest.FormatAuto
	FormatVPPB    = ingest.FormatVPPB
	FormatGoTrace = ingest.FormatGoTrace
)

// ReadLogFormat loads a trace file in the named format; FormatAuto sniffs
// the format from the file's bytes.
func ReadLogFormat(path, format string) (*Log, error) { return ingest.File(path, format) }

// CheckLogFormat validates a -format flag value; the error lists the
// accepted names.
func CheckLogFormat(format string) error { return ingest.CheckFormat(format) }

// DetectLogFormat sniffs the trace format of raw bytes, returning
// FormatVPPB, FormatGoTrace or "" when the bytes match neither.
func DetectLogFormat(data []byte) string { return ingest.Detect(data) }

// ConvertGoTrace rebuilds a Go runtime execution trace as a 1-CPU/1-LWP
// vppb recording: goroutines become threads, block/wake pairs become
// synchronization operations. program names the recording ("gotrace" if
// empty).
func ConvertGoTrace(data []byte, program string) (*Log, error) {
	return gotrace.Convert(data, gotrace.Options{Program: program})
}

// FormatLog renders a log in the paper's figure-2 listing style.
func FormatLog(log *Log) string { return trace.FormatPaper(log) }

// MarshalLogText returns the log's text encoding.
func MarshalLogText(log *Log) []byte { return trace.AppendText(nil, log) }

// MarshalLogBinary returns the log's compact binary encoding.
func MarshalLogBinary(log *Log) []byte { return trace.AppendBinary(nil, log) }

// MarshalTimeline encodes a predicted execution (figure 1's artifact (g))
// for storage; UnmarshalTimeline loads and validates it.
func MarshalTimeline(tl *Timeline) ([]byte, error) { return trace.MarshalTimeline(tl) }

// UnmarshalTimeline decodes a stored execution description.
func UnmarshalTimeline(data []byte) (*Timeline, error) { return trace.UnmarshalTimeline(data) }

// Trace integrity & recovery.
type (
	// RepairStrategy names one recovery pass of RepairLog.
	RepairStrategy = trace.RepairStrategy
	// RepairReport lists every mutation a repair performed.
	RepairReport = trace.RepairReport
	// RepairMutation is one change in a RepairReport.
	RepairMutation = trace.RepairMutation
	// UnrecoverableError names the record a repair could not recover.
	UnrecoverableError = trace.UnrecoverableError
	// CorruptionClass names one way faultinject damages a log.
	CorruptionClass = faultinject.Class
	// CorruptionInjection describes an applied corruption.
	CorruptionInjection = faultinject.Injection
)

// Repair strategies, in pipeline order.
const (
	RepairSort           = trace.RepairSort
	RepairDropDuplicates = trace.RepairDropDuplicates
	RepairClampTimes     = trace.RepairClampTimes
	RepairDropOrphans    = trace.RepairDropOrphans
	RepairSynthesize     = trace.RepairSynthesize
)

// RepairLog recovers a structurally damaged log; with no strategies the
// full pipeline runs. The result passes Log.Validate or the error is an
// *UnrecoverableError.
func RepairLog(log *Log, strategies ...RepairStrategy) (*Log, *RepairReport, error) {
	return trace.Repair(log, strategies...)
}

// AllRepairStrategies lists every repair strategy in pipeline order.
func AllRepairStrategies() []RepairStrategy { return trace.AllRepairStrategies() }

// CorruptLog applies one deterministic corruption to a copy of the log —
// the adversarial half of the integrity test harness.
func CorruptLog(log *Log, class CorruptionClass, seed int64) (*Log, *CorruptionInjection, error) {
	return faultinject.Inject(log, class, seed)
}

// CorruptionClasses lists every corruption class in a stable order.
func CorruptionClasses() []CorruptionClass { return faultinject.Classes() }

// Simulator (the paper's primary contribution).
type (
	// Machine is the simulated hardware and scheduling configuration.
	Machine = core.Machine
	// Override adjusts one thread's binding or priority.
	Override = core.Override
	// SimResult is a predicted execution.
	SimResult = core.Result
	// DeadlockError carries the wait-for graph of a stuck simulation.
	DeadlockError = core.DeadlockError
	// WaitEdge is one thread's entry in a DeadlockError wait-for graph.
	WaitEdge = core.WaitEdge
	// LivelockError reports a simulation spinning without time advance.
	LivelockError = core.LivelockError
	// BudgetError reports an exhausted Machine watchdog budget.
	BudgetError = core.BudgetError
)

// Thread binding overrides.
const (
	BindAsRecorded = core.BindAsRecorded
	BindUnbound    = core.BindUnbound
	BindLWP        = core.BindLWP
	BindCPU        = core.BindCPU
)

// MaxCPUs bounds a simulated machine's CPU count and LWP pool; Simulate
// fails above it.
const MaxCPUs = core.MaxCPUs

// TraceProfile is the immutable per-thread behaviour profile the
// Simulator replays — build it once per log and share it across any
// number of concurrent simulations.
type TraceProfile = trace.Profile

// BuildProfile derives the behaviour profile of a recording. The result
// is read-only: SimulateProfile and SimulateMany never mutate it.
func BuildProfile(log *Log) (*TraceProfile, error) { return trace.BuildProfile(log) }

// Simulate predicts the execution of a recording on machine m.
func Simulate(log *Log, m Machine) (*SimResult, error) { return core.Simulate(log, m) }

// SimulateProfile predicts the execution of a prebuilt behaviour profile
// on machine m, skipping the per-call profile derivation Simulate repeats.
func SimulateProfile(prof *TraceProfile, m Machine) (*SimResult, error) {
	return core.SimulateProfile(prof, m)
}

// SimulateMany predicts one profile on several machines concurrently over
// a bounded worker pool, with results in machine order.
func SimulateMany(prof *TraceProfile, machines []Machine) ([]*SimResult, error) {
	return core.SimulateMany(prof, machines)
}

// SimulateManyCtx is SimulateMany under a context: when ctx is cancelled,
// machines not yet started are skipped and ctx's error is returned. Bound
// an individual simulation's worst case with Machine.MaxSimEvents /
// MaxVirtualTime — a replay already running is not interrupted.
func SimulateManyCtx(ctx context.Context, prof *TraceProfile, machines []Machine) ([]*SimResult, error) {
	return core.SimulateManyCtx(ctx, prof, machines)
}

// Deployment optimization: rank every (policy × CPU count) configuration
// of a grid by predicted execution time, pruning provably hopeless
// configurations with the happens-before lower bound.
type (
	// OptimizeOptions configures an Optimize sweep.
	OptimizeOptions = analysis.OptimizeOptions
	// OptimizeResult is the ranked outcome.
	OptimizeResult = analysis.OptimizeResult
	// OptimizeCandidate is one grid point's outcome.
	OptimizeCandidate = analysis.Candidate
)

// DefaultOptimizeCPUs is the default CPU grid (the paper's Table 1
// processor counts).
func DefaultOptimizeCPUs() []int {
	return append([]int(nil), analysis.DefaultOptimizeCPUs...)
}

// Optimize sweeps the configuration grid over one behaviour profile. hbA
// supplies the pruning bounds (AnalyzeHB of the same recording); nil
// disables pruning.
func Optimize(ctx context.Context, prof *TraceProfile, hbA *HBAnalysis, opts OptimizeOptions) (*OptimizeResult, error) {
	return analysis.Optimize(ctx, prof, hbA, opts)
}

// DefaultPolicy is the scheduling discipline both engines use when none is
// named: the Solaris TS class driven by the dispatch table.
const DefaultPolicy = sched.Default

// SchedulingPolicies lists the registered scheduling policy names in
// sorted order — valid values for Machine.Policy, ProcessConfig.Policy and
// RecordOptions.Policy.
func SchedulingPolicies() []string { return sched.Names() }

// CheckPolicy reports whether name selects a registered scheduling policy
// (empty selects the default). The error message lists the valid names.
func CheckPolicy(name string) error {
	_, err := sched.New(name)
	return err
}

// Speedup is T1/TP.
func Speedup(t1, tp Duration) float64 { return metrics.Speedup(t1, tp) }

// PredictionError is the paper's ((real - predicted) / real).
func PredictionError(real, predicted float64) float64 {
	return metrics.PredictionError(real, predicted)
}

// PredictSpeedup predicts the speed-up of a recorded program on machine m,
// using a one-processor replay of the same recording as baseline. The
// baseline shares every non-CPU parameter of m (LWPs, communication delay,
// overrides), so the ratio isolates the processor count. The profile is
// derived once and shared by both replays, which build no timeline.
func PredictSpeedup(log *Log, m Machine) (float64, error) {
	prof, err := trace.BuildProfile(log)
	if err != nil {
		return 0, err
	}
	m.DiscardTimeline = true
	uni, err := core.SimulateProfile(prof, m.Uniprocessor())
	if err != nil {
		return 0, err
	}
	multi, err := core.SimulateProfile(prof, m)
	if err != nil {
		return 0, err
	}
	return metrics.Speedup(uni.Duration, multi.Duration), nil
}

// Visualizer.
type (
	// View is a window onto an execution.
	View = viz.View
	// Inspector implements the popup and stepping facilities.
	Inspector = viz.Inspector
	// EventRef identifies one placed event.
	EventRef = viz.EventRef
	// ASCIIOptions, SVGOptions and HTMLOptions size the renderings.
	ASCIIOptions = viz.ASCIIOptions
	SVGOptions   = viz.SVGOptions
	HTMLOptions  = viz.HTMLOptions
)

// Zoom steps (x1.5 and x3, paper section 3.3).
const (
	ZoomFine   = viz.ZoomFine
	ZoomCoarse = viz.ZoomCoarse
)

// NewView creates a view of an execution timeline.
func NewView(tl *Timeline) (*View, error) { return viz.NewView(tl) }

// NewInspector creates an event inspector for a timeline.
func NewInspector(tl *Timeline) *Inspector { return viz.NewInspector(tl) }

// Analysis.
type (
	// ContentionReport ranks synchronization objects and threads by the
	// time spent in (or blocked by) them.
	ContentionReport = analysis.Report
	// ObjectContention is one object's aggregate in the report.
	ObjectContention = analysis.ObjectContention
)

// Analyze builds a contention report from an execution timeline.
func Analyze(tl *Timeline) (*ContentionReport, error) { return analysis.Analyze(tl) }

// Happens-before analysis.
type (
	// HBAnalysis is the happens-before analysis of a recording: the
	// critical-path speed-up bound, per-object serialization scores and
	// the lock-order graph. Its vector clocks (Clocks, HappensBefore,
	// Concurrent) are built on first use.
	HBAnalysis = hb.Analysis
	// LockOrderGraph is the lock-acquisition-order graph with cycle
	// detection; its unsuppressed cycles are potential deadlocks.
	LockOrderGraph = hb.LockOrderGraph
	// LockCycle is one cycle of the lock-order graph.
	LockCycle = hb.Cycle
	// ObjectScore is one object's serialization score.
	ObjectScore = hb.ObjectScore
	// CritOverlay highlights critical-path call records in the flow
	// graph renderings (ASCIIOptions.Overlay / SVGOptions.Overlay).
	CritOverlay = viz.CritOverlay
)

// AnalyzeHB computes the happens-before analysis of a 1-CPU/1-LWP
// recording: the machine-independent speed-up upper bound (Work divided by
// the critical path), the top critical-path source sites, per-object
// serialization scores, and lock-order cycles flagging potential deadlocks
// the recorded run happened not to hit.
func AnalyzeHB(log *Log) (*HBAnalysis, error) { return hb.Analyze(log) }

// CPUReport summarizes per-processor occupancy.
type CPUReport = analysis.CPUReport

// AnalyzeCPUs computes per-processor busy time and utilization.
func AnalyzeCPUs(tl *Timeline) (*CPUReport, error) { return analysis.AnalyzeCPUs(tl) }

// RenderCPULanesASCII draws one lane per processor showing the running
// thread over time.
func RenderCPULanesASCII(v *View, opts ASCIIOptions) string {
	return viz.RenderCPULanesASCII(v, opts)
}

// RenderASCII draws the parallelism and execution flow graphs as text.
func RenderASCII(v *View, opts ASCIIOptions) string { return viz.Render(v, opts) }

// RenderSVG draws both graphs as an SVG document.
func RenderSVG(v *View, opts SVGOptions) string { return viz.RenderSVG(v, opts) }

// RenderHTML produces a self-contained HTML report: both graphs plus the
// contention and thread tables.
func RenderHTML(v *View, opts HTMLOptions) (string, error) { return viz.RenderHTML(v, opts) }

// RenderChromeTrace serializes a predicted execution as Chrome/Perfetto
// trace-event JSON, loadable in ui.perfetto.dev or chrome://tracing.
func RenderChromeTrace(tl *Timeline) ([]byte, error) { return viz.RenderChromeTrace(tl) }

// Workloads.
type (
	// Workload is a runnable multithreaded program.
	Workload = workloads.Workload
	// WorkloadParams sizes a workload.
	WorkloadParams = workloads.Params
)

// Workloads lists the registered workload names.
func Workloads() []string { return workloads.Names() }

// SplashWorkloads lists the five SPLASH-2 analogues in Table 1 order.
func SplashWorkloads() []string { return workloads.Splash() }

// GetWorkload returns a workload by name.
func GetWorkload(name string) (*Workload, error) { return workloads.Get(name) }

// RecordWorkload records a registered workload under the Recorder.
func RecordWorkload(name string, prm WorkloadParams) (*Log, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	log, _, err := recorder.Record(w.Bind(prm), recorder.Options{Program: name})
	return log, err
}

// Experiments (the paper's evaluation).
type (
	// ExperimentOptions scales the experiment drivers.
	ExperimentOptions = experiments.Options
	// Table1Result is the regenerated Table 1.
	Table1Result = experiments.Table1Result
)

// Experiment drivers; each regenerates one table or figure of the paper.
var (
	ExperimentTable1      = experiments.Table1
	ExperimentFig2        = experiments.Fig2
	ExperimentFig4        = experiments.Fig4
	ExperimentFig5        = experiments.Fig5
	ExperimentCase5       = experiments.Case5
	ExperimentOverhead    = experiments.Overhead
	ExperimentLogStats    = experiments.LogStats
	ExperimentIO          = experiments.IOExtension
	ExperimentFaults      = experiments.Faults
	ExperimentBounds      = experiments.Bounds
	ExperimentPolicySweep = experiments.PolicySweep
	ExperimentChaos       = experiments.Chaos
	AblationBound         = experiments.AblationBound
	AblationCommDelay     = experiments.AblationCommDelay
	AblationLWPs          = experiments.AblationLWPs
)
