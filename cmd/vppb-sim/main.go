// Command vppb-sim predicts a recorded program's multiprocessor execution
// — the Simulator stage of the paper's figure 1. It reads a log written by
// vppb-record, simulates it under the given machine configuration, and
// prints the predicted execution time, the predicted speed-up over a
// one-processor replay, and optional reports.
//
// Usage:
//
//	vppb-sim -log ocean-8.log -cpus 8 -perthread -contention -cpureport
//	vppb-sim -log app.log -cpus 4 -lwps 2 -commdelay 50
//	vppb-sim -log app.log -cpus 2 -bind 4=cpu:1 -bind 5=lwp -prio 6=55
//	vppb-sim -log app.log -sweep 1,2,4,8,16
//	vppb-sim -log trace.out -format gotrace -cpus 8  # Go runtime execution trace
//	vppb-sim -log app.log -cpus 8 -policy rr         # what-if: round-robin scheduling
//	vppb-sim -log app.log -cpus 8 -timeline app.tl   # artifact (g) for vppb-view
//	vppb-sim -log damaged.log -repair                # print every applied fix
//	vppb-sim -log damaged.log -strict                # refuse corrupt input
//
// A structurally invalid log is repaired automatically before simulation
// (a one-line note goes to stderr); -repair additionally prints the full
// repair report, and -strict turns any corruption into a hard failure.
// -max-events and -max-vtime bound the simulation itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"vppb"
	"vppb/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vppb-sim:", err)
		os.Exit(cli.ExitCode(err))
	}
}

type bindFlags struct {
	overrides map[vppb.ThreadID]vppb.Override
}

func (b *bindFlags) String() string { return "" }

// Set parses "TID=cpu:N", "TID=lwp" or "TID=unbound".
func (b *bindFlags) Set(v string) error {
	tidStr, spec, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want TID=cpu:N | TID=lwp | TID=unbound, got %q", v)
	}
	tid, err := strconv.Atoi(tidStr)
	if err != nil {
		return fmt.Errorf("thread id %q: %v", tidStr, err)
	}
	ov := b.overrides[vppb.ThreadID(tid)]
	switch {
	case spec == "lwp":
		ov.Binding = vppb.BindLWP
	case spec == "unbound":
		ov.Binding = vppb.BindUnbound
	case strings.HasPrefix(spec, "cpu:"):
		cpu, err := strconv.Atoi(spec[4:])
		if err != nil {
			return fmt.Errorf("cpu %q: %v", spec[4:], err)
		}
		ov.Binding = vppb.BindCPU
		ov.CPU = cpu
	default:
		return fmt.Errorf("unknown binding %q", spec)
	}
	b.overrides[vppb.ThreadID(tid)] = ov
	return nil
}

type prioFlags struct {
	overrides map[vppb.ThreadID]vppb.Override
}

func (p *prioFlags) String() string { return "" }

// Set parses "TID=PRIO": pin a thread's priority, ignoring thr_setprio.
func (p *prioFlags) Set(v string) error {
	tidStr, prioStr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want TID=PRIO, got %q", v)
	}
	tid, err := strconv.Atoi(tidStr)
	if err != nil {
		return err
	}
	prio, err := strconv.Atoi(prioStr)
	if err != nil {
		return err
	}
	ov := p.overrides[vppb.ThreadID(tid)]
	ov.Priority = &prio
	p.overrides[vppb.ThreadID(tid)] = ov
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	overrides := map[vppb.ThreadID]vppb.Override{}
	fs := flag.NewFlagSet("vppb-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		logPath    = fs.String("log", "", "recorded log file (required)")
		format     = fs.String("format", "auto", "input trace format: auto | vppb | gotrace (a Go runtime execution trace)")
		cpus       = fs.Int("cpus", 1, "number of processors")
		lwps       = fs.Int("lwps", 0, "number of LWPs (0 = one per CPU, honour thr_setconcurrency)")
		commDelay  = fs.Int64("commdelay", 0, "inter-CPU communication delay in microseconds")
		noPreempt  = fs.Bool("nopreempt", false, "disable priority preemption")
		policy     = fs.String("policy", "", "scheduling policy: "+strings.Join(vppb.SchedulingPolicies(), ", ")+" (default \"ts\")")
		perThread  = fs.Bool("perthread", false, "print per-thread statistics")
		contention = fs.Bool("contention", false, "print the contention report (top objects and most-blocked threads)")
		cpuReport  = fs.Bool("cpureport", false, "print per-CPU busy time and utilization")
		timelineP  = fs.String("timeline", "", "write the predicted execution (figure 1's artifact g) to this file for vppb-view")
		sweep      = fs.String("sweep", "", "comma-separated CPU counts: print a prediction per machine size instead of one simulation")
		optimize   = fs.Bool("optimize", false, "rank every (policy x CPU count) configuration and print the winner; -sweep overrides the CPU grid (default 1,2,4,8)")
		repair     = fs.Bool("repair", false, "print the full repair report when the log needs recovery")
		strict     = fs.Bool("strict", false, "fail on a corrupt log instead of repairing it")
		maxEvents  = fs.Int64("max-events", 0, "abort the simulation after this many simulated events (0 = unlimited)")
		maxVtime   = fs.Int64("max-vtime", 0, "abort the simulation past this many microseconds of virtual time (0 = unlimited)")
	)
	fs.Var(&bindFlags{overrides}, "bind", "thread binding override: TID=cpu:N | TID=lwp | TID=unbound (repeatable)")
	fs.Var(&prioFlags{overrides}, "prio", "pin a thread's priority: TID=PRIO (repeatable)")
	if err := fs.Parse(args); err != nil {
		return cli.UsageError{Err: err}
	}

	if *logPath == "" {
		return cli.Usagef("missing -log")
	}
	if *strict && *repair {
		return cli.Usagef("-strict and -repair are mutually exclusive")
	}
	if err := vppb.CheckPolicy(*policy); err != nil {
		return cli.Usagef("-policy: %w", err)
	}
	if err := vppb.CheckLogFormat(*format); err != nil {
		return cli.UsageError{Err: err}
	}
	if *cpus > vppb.MaxCPUs || *lwps > vppb.MaxCPUs {
		return cli.Usagef("-cpus %d / -lwps %d: at most %d each", *cpus, *lwps, vppb.MaxCPUs)
	}
	var sizes []int
	if *sweep != "" {
		var err error
		if sizes, err = parseSizes(*sweep); err != nil {
			return cli.UsageError{Err: err}
		}
	}
	p, err := cli.ReadLog("vppb-sim", *logPath, *format, *strict, *repair, stderr)
	if err != nil {
		return err
	}
	// The profile is shared, read-only, by every simulation this
	// invocation runs (the prediction, its uniprocessor baseline, and all
	// sweep points).
	log, prof := p.Log, p.Profile

	machine := vppb.Machine{
		CPUs:           *cpus,
		LWPs:           *lwps,
		CommDelay:      vppb.Duration(*commDelay),
		NoPreemption:   *noPreempt,
		Policy:         *policy,
		Overrides:      overrides,
		MaxSimEvents:   *maxEvents,
		MaxVirtualTime: vppb.Duration(*maxVtime),
	}
	if *optimize {
		return runOptimize(stdout, stderr, log, prof, sizes)
	}
	if *sweep != "" {
		return runSweep(stdout, prof, sizes, machine)
	}

	// Only the file and the reports read the predicted timeline; the
	// printed prediction and its baseline need durations alone.
	machine.DiscardTimeline = *timelineP == "" && !*contention && !*cpuReport && !*perThread
	uniMachine := machine.Uniprocessor()
	uniMachine.DiscardTimeline = true
	both, err := vppb.SimulateMany(prof, []vppb.Machine{machine, uniMachine})
	if err != nil {
		return err
	}
	res, uni := both[0], both[1]
	speedup := vppb.Speedup(uni.Duration, res.Duration)

	fmt.Fprintf(stdout, "program            %s\n", log.Header.Program)
	fmt.Fprintf(stdout, "recorded duration  %s (on 1 CPU, monitored)\n", log.Duration())
	polName := *policy
	if polName == "" {
		polName = vppb.DefaultPolicy
	}
	fmt.Fprintf(stdout, "machine            %d CPUs, %d LWPs, comm delay %s, policy %s\n", *cpus, *lwps, vppb.Duration(*commDelay), polName)
	fmt.Fprintf(stdout, "predicted duration %s\n", res.Duration)
	fmt.Fprintf(stdout, "predicted speed-up %.2f\n", speedup)
	fmt.Fprintf(stdout, "simulated events   %d\n", res.Events)

	if *timelineP != "" {
		data, err := vppb.MarshalTimeline(res.Timeline)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*timelineP, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *timelineP)
	}

	if *contention {
		rep, err := vppb.Analyze(res.Timeline)
		if err != nil {
			return err
		}
		// Rank by serialization score (how much of the critical path each
		// object must serialize) when the recording supports happens-before
		// analysis; otherwise keep the raw blocking-time order.
		if a, err := vppb.AnalyzeHB(log); err == nil {
			rep.ApplySerialization(a.SerializationScores())
		} else {
			fmt.Fprintf(stderr, "vppb-sim: contention ranked by blocking time only (%v)\n", err)
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rep.Format(10))
	}

	if *cpuReport {
		rep, err := vppb.AnalyzeCPUs(res.Timeline)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rep.Format())
	}

	if *perThread {
		ids := make([]vppb.ThreadID, 0, len(res.PerThreadCPU))
		for id := range res.PerThreadCPU {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(stdout, "\n%-6s %-14s %12s %12s %12s\n", "thread", "name", "cpu time", "working", "total")
		for _, id := range ids {
			tt := res.Timeline.Thread(id)
			if tt == nil {
				continue
			}
			fmt.Fprintf(stdout, "T%-5d %-14s %12s %12s %12s\n",
				id, log.ThreadName(id), res.PerThreadCPU[id], tt.WorkTime(), tt.TotalTime())
		}
	}
	return nil
}

// runOptimize answers "what should I deploy on?": it sweeps every
// (policy × CPU count) configuration, pruning configurations whose
// happens-before lower bound already loses to the incumbent and reusing
// replays that stand for later configurations, and prints the ranked grid
// plus the winner. Non-nil sizes override the CPU grid.
func runOptimize(stdout, stderr io.Writer, log *vppb.Log, prof *vppb.TraceProfile, sizes []int) error {
	hbA, err := vppb.AnalyzeHB(log)
	if err != nil {
		fmt.Fprintf(stderr, "vppb-sim: optimizing without bound pruning (%v)\n", err)
		hbA = nil
	}
	res, err := vppb.Optimize(context.Background(), prof, hbA, vppb.OptimizeOptions{CPUCounts: sizes})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-8s %6s %16s %16s %8s\n", "policy", "CPUs", "predicted time", "lower bound", "")
	for _, c := range res.Candidates {
		note := ""
		switch {
		case c.Pruned:
			note = "pruned"
		case c.Reused:
			note = "reused"
		}
		dur := "-"
		if !c.Pruned {
			dur = c.Duration.String()
		}
		fmt.Fprintf(stdout, "%-8s %6d %16s %16s %8s\n", c.Policy, c.CPUs, dur, c.LowerBound, note)
	}
	fmt.Fprintf(stdout, "\nwinner: %s on %d CPUs (predicted %s); %d of %d configurations simulated (%d reused), %d pruned\n",
		res.Winner.Policy, res.Winner.CPUs, res.Winner.Duration, res.Simulated, len(res.Candidates), res.Reused, res.Pruned)
	return nil
}

// runSweep prints one prediction per machine size — the paper's core use
// case of asking "what if I had N processors?" for several N at once. The
// sweep points and the uniprocessor baseline all replay one shared
// profile concurrently; rows print in the order the sizes were given. The
// baseline shares every non-CPU parameter of the swept machine (-lwps,
// -commdelay, overrides), so the printed speed-ups isolate the processor
// count. Every row is a duration, so no replay builds a timeline.
func runSweep(stdout io.Writer, prof *vppb.TraceProfile, sizes []int, base vppb.Machine) error {
	base.DiscardTimeline = true
	// Machine 0 is the baseline; the sweep points follow in input order.
	machines := make([]vppb.Machine, 0, len(sizes)+1)
	machines = append(machines, base.Uniprocessor())
	for _, cpus := range sizes {
		m := base
		m.CPUs = cpus
		machines = append(machines, m)
	}
	results, err := vppb.SimulateMany(prof, machines)
	if err != nil {
		return err
	}
	uni := results[0]
	fmt.Fprintf(stdout, "%6s %16s %10s\n", "CPUs", "predicted time", "speed-up")
	for i, cpus := range sizes {
		res := results[i+1]
		fmt.Fprintf(stdout, "%6d %16s %9.2fx\n", cpus, res.Duration, vppb.Speedup(uni.Duration, res.Duration))
	}
	return nil
}

// parseSizes parses the -sweep CPU grid.
func parseSizes(spec string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(spec, ",") {
		cpus, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || cpus < 1 {
			return nil, fmt.Errorf("-sweep wants positive CPU counts, got %q", part)
		}
		if cpus > vppb.MaxCPUs {
			return nil, fmt.Errorf("-sweep allows at most %d CPUs per machine, got %d", vppb.MaxCPUs, cpus)
		}
		sizes = append(sizes, cpus)
	}
	return sizes, nil
}
