// Command vppb-analyze runs the happens-before analysis over a recorded
// log: the machine-independent speed-up upper bound (total work divided by
// the critical path), the critical path itself attributed to source lines
// and synchronization objects, and the lock-order graph whose cycles flag
// potential deadlocks the recorded run happened not to hit.
//
// Where vppb-sim answers "how fast on N processors?", vppb-analyze answers
// "how fast on *any* number of processors, and what stops it from being
// faster?" — the bound is printed next to the Simulator's per-CPU
// predictions so the two can be read together.
//
// Usage:
//
//	vppb-analyze -log prodcons.log                     # bound + prediction sweep
//	vppb-analyze -log prodcons.log -critpath -top 5    # top path sites and scores
//	vppb-analyze -log app.log -lockorder               # potential deadlocks
//	vppb-analyze -log trace.out -format gotrace -bound # real Go program, from `go test -trace`
//	vppb-analyze -log app.log -json > report.json      # machine-readable
//	vppb-analyze -log app.log -flow -width 120         # flow graph, path in '#'
//	vppb-analyze -log app.log -svg app.svg             # flow graph with overlay
//	vppb-analyze -log damaged.log -repair              # print every applied fix
//	vppb-analyze -log damaged.log -strict              # refuse corrupt input
//
// A structurally invalid log is repaired automatically before analysis,
// exactly as vppb-sim does (a one-line note goes to stderr); -repair prints
// the full repair report and -strict turns any corruption into a hard
// failure. Usage mistakes exit with status 2, runtime failures with 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vppb"
	"vppb/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vppb-analyze:", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vppb-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		logPath   = fs.String("log", "", "recorded log file (required)")
		format    = fs.String("format", "auto", "input trace format: auto | vppb | gotrace (a Go runtime execution trace)")
		cpusList  = fs.String("cpus", "2,4,8", "comma-separated CPU counts for the prediction sweep")
		bound     = fs.Bool("bound", false, "print only the one-line speed-up bound")
		boundAt   = fs.String("bound-at", "", "comma-separated CPU counts: print the speed-up bound clamped at each count, with no simulation (honours -json)")
		critpath  = fs.Bool("critpath", false, "print the critical-path report (top sites and serialization scores)")
		lockorder = fs.Bool("lockorder", false, "print the lock-order graph and potential deadlocks")
		top       = fs.Int("top", 10, "number of sites/objects/scores to print")
		jsonOut   = fs.Bool("json", false, "emit the full analysis as JSON instead of text")
		flow      = fs.Bool("flow", false, "draw the execution flow graph of the replay with the critical path highlighted")
		width     = fs.Int("width", 100, "flow graph width in columns")
		svgPath   = fs.String("svg", "", "write the replay's flow graph with the critical-path overlay to this SVG file")
		repair    = fs.Bool("repair", false, "print the full repair report when the log needs recovery")
		strict    = fs.Bool("strict", false, "fail on a corrupt log instead of repairing it")
	)
	if err := fs.Parse(args); err != nil {
		return cli.UsageError{Err: err}
	}
	if *logPath == "" {
		return cli.Usagef("missing -log")
	}
	if *strict && *repair {
		return cli.Usagef("-strict and -repair are mutually exclusive")
	}
	cpuCounts, err := parseCPUList(*cpusList)
	if err != nil {
		return cli.UsageError{Err: err}
	}
	for _, c := range cpuCounts {
		if c > vppb.MaxCPUs {
			return cli.Usagef("-cpus allows at most %d CPUs per machine, got %d", vppb.MaxCPUs, c)
		}
	}
	var boundCounts []int
	if *boundAt != "" {
		if boundCounts, err = parseCPUList(*boundAt); err != nil {
			return cli.Usagef("-bound-at: %w", err)
		}
	}
	if err := vppb.CheckLogFormat(*format); err != nil {
		return cli.UsageError{Err: err}
	}

	p, err := cli.ReadLog("vppb-analyze", *logPath, *format, *strict, *repair, stderr)
	if err != nil {
		return err
	}
	log := p.Log

	a, err := vppb.AnalyzeHB(log)
	if err != nil {
		return err
	}

	if *boundAt != "" {
		return printBoundAt(stdout, log, a, boundCounts, *jsonOut)
	}

	if *jsonOut {
		data, err := a.FormatJSON(*top)
		if err != nil {
			return err
		}
		stdout.Write(data)
		io.WriteString(stdout, "\n")
		return nil
	}

	if *bound {
		io.WriteString(stdout, a.FormatBound())
		return nil
	}

	// Default header: the bound next to the Simulator's per-CPU
	// predictions, so the machine-independent ceiling and the concrete
	// what-if numbers read side by side.
	fmt.Fprintf(stdout, "program            %s\n", log.Header.Program)
	fmt.Fprintf(stdout, "events             %d over %d threads\n", len(log.Events), len(log.Threads))
	io.WriteString(stdout, a.FormatBound())

	// One replay set: the 1-CPU baseline every speed-up divides by, then
	// one machine per row. The flow graph and the SVG overlay draw the
	// last row's replay, so only that one keeps its timeline, and only
	// when they are asked for.
	machines := []vppb.Machine{{CPUs: 1, DiscardTimeline: true}}
	for _, cpus := range cpuCounts {
		machines = append(machines, vppb.Machine{CPUs: cpus, DiscardTimeline: true})
	}
	drawn := len(machines) - 1
	machines[drawn].DiscardTimeline = !*flow && *svgPath == ""
	results, err := vppb.SimulateMany(p.Profile, machines)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%6s %18s %13s\n", "CPUs", "predicted speed-up", "upper bound")
	for i, cpus := range cpuCounts {
		sp := vppb.Speedup(results[0].Duration, results[i+1].Duration)
		fmt.Fprintf(stdout, "%6d %17.2fx %12.2fx\n", cpus, sp, a.BoundAt(cpus))
	}

	if *critpath {
		io.WriteString(stdout, "\n")
		io.WriteString(stdout, a.FormatCritPath(*top))
	}
	if *lockorder {
		io.WriteString(stdout, "\n")
		io.WriteString(stdout, a.FormatLockOrder())
	}

	if *flow || *svgPath != "" {
		// The overlay highlights the replayed execution at the largest
		// swept machine size.
		cpus := cpuCounts[len(cpuCounts)-1]
		view, err := vppb.NewView(results[drawn].Timeline)
		if err != nil {
			return err
		}
		overlay := vppb.CritOverlay(a.PathRecords())
		if *flow {
			fmt.Fprintf(stdout, "\npredicted execution on %d CPUs:\n", cpus)
			io.WriteString(stdout, vppb.RenderASCII(view, vppb.ASCIIOptions{Width: *width, Overlay: overlay}))
		}
		if *svgPath != "" {
			svg := vppb.RenderSVG(view, vppb.SVGOptions{
				Title:   fmt.Sprintf("%s on %d CPUs — critical path", log.Header.Program, cpus),
				Overlay: overlay,
			})
			if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %s\n", *svgPath)
		}
	}
	return nil
}

// printBoundAt prints the machine-independent speed-up bound clamped at
// each requested CPU count — max(CritPath, Work/c) as a ratio — without
// running a single simulation. It is the cheap first look /v1/optimize
// and vppb-sim -optimize use to prune configurations.
func printBoundAt(stdout io.Writer, log *vppb.Log, a *vppb.HBAnalysis, counts []int, jsonOut bool) error {
	if jsonOut {
		type row struct {
			CPUs  int     `json:"cpus"`
			Bound float64 `json:"bound"`
		}
		doc := struct {
			Program  string  `json:"program"`
			WorkUS   int64   `json:"work_us"`
			CritUS   int64   `json:"crit_path_us"`
			Bound    float64 `json:"bound"`
			BoundsAt []row   `json:"bounds_at"`
		}{log.Header.Program, int64(a.Work), int64(a.CritPath), a.Bound(), make([]row, 0, len(counts))}
		for _, c := range counts {
			doc.BoundsAt = append(doc.BoundsAt, row{c, a.BoundAt(c)})
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		stdout.Write(append(data, '\n'))
		return nil
	}
	fmt.Fprintf(stdout, "program            %s\n", log.Header.Program)
	fmt.Fprintf(stdout, "work / crit path   %s / %s (bound %.2fx)\n", a.Work, a.CritPath, a.Bound())
	fmt.Fprintf(stdout, "\n%6s %13s\n", "CPUs", "upper bound")
	for _, c := range counts {
		fmt.Fprintf(stdout, "%6d %12.2fx\n", c, a.BoundAt(c))
	}
	return nil
}

func parseCPUList(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cpus wants positive CPU counts, got %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
