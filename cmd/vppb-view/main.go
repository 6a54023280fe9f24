// Command vppb-view renders the Visualizer's graphs for a predicted
// execution: the parallelism graph and the execution flow graph of the
// paper's figure 5 (plus optional per-CPU lanes), as ASCII on stdout and
// optionally as SVG or a self-contained HTML report. It also exposes the
// inspection facilities: event popups, stepping, and source lookup.
//
// Usage:
//
//	vppb-view -log app.log -cpus 8
//	vppb-view -timeline app.tl -svg out.svg -html out.html
//	vppb-view -log app.log -cpus 8 -window 0.5,0.6 -compress -lanes
//	vppb-view -log app.log -cpus 8 -inspect 4 -at 0.25 -source
//	vppb-view -log trace.out -format gotrace -cpus 4 -chrometrace out.json
//	vppb-view -log damaged.log -repair       # print every applied fix
//	vppb-view -log damaged.log -strict       # refuse corrupt input
//
// Like vppb-sim, a structurally invalid log is repaired automatically
// before simulation (a one-line note goes to stderr); -repair prints the
// full repair report and -strict turns any corruption into a hard
// failure.
package main

import (
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
		fmt.Fprintln(os.Stderr, "vppb-view:", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vppb-view", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		logPath  = fs.String("log", "", "recorded log file (simulated on the machine below)")
		format   = fs.String("format", "auto", "input trace format: auto | vppb | gotrace (a Go runtime execution trace)")
		tlPath   = fs.String("timeline", "", "predicted execution written by vppb-sim -timeline (bypasses simulation)")
		cpus     = fs.Int("cpus", 1, "number of processors to simulate")
		lwps     = fs.Int("lwps", 0, "number of LWPs (0 = one per CPU)")
		width    = fs.Int("width", 100, "ASCII graph width in columns")
		maxRows  = fs.Int("maxrows", 0, "cap flow-graph rows (0 = all)")
		window   = fs.String("window", "", "visible interval as start,end in seconds (e.g. 0.5,0.75)")
		zoomIn   = fs.Int("zoom", 0, "zoom in N fine steps (x1.5 each), left edge fixed")
		compress = fs.Bool("compress", false, "hide threads inactive in the window")
		lanes    = fs.Bool("lanes", false, "also draw per-CPU lanes (which thread ran where)")
		threads  = fs.String("threads", "", "comma-separated thread IDs to show (default all)")
		svgPath  = fs.String("svg", "", "also write an SVG rendering to this file")
		htmlPath = fs.String("html", "", "also write a self-contained HTML report to this file")
		chromeP  = fs.String("chrometrace", "", "also write Chrome/Perfetto trace-event JSON to this file (open in ui.perfetto.dev)")
		inspect  = fs.Int("inspect", 0, "describe the event of thread TID nearest -at")
		at       = fs.Float64("at", 0, "time (seconds) for -inspect")
		showSrc  = fs.Bool("source", false, "with -inspect, print the highlighted source excerpt")
		repair   = fs.Bool("repair", false, "print the full repair report when the log needs recovery")
		strict   = fs.Bool("strict", false, "fail on a corrupt log instead of repairing it")
	)
	if err := fs.Parse(args); err != nil {
		return cli.UsageError{Err: err}
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", fs.Arg(0))
	}
	if *strict && *repair {
		return cli.Usagef("-strict and -repair are mutually exclusive")
	}
	if *cpus > vppb.MaxCPUs || *lwps > vppb.MaxCPUs {
		return cli.Usagef("-cpus %d / -lwps %d: at most %d each", *cpus, *lwps, vppb.MaxCPUs)
	}

	var timeline *vppb.Timeline
	var program string
	switch {
	case *tlPath != "":
		data, err := os.ReadFile(*tlPath)
		if err != nil {
			return err
		}
		timeline, err = vppb.UnmarshalTimeline(data)
		if err != nil {
			return err
		}
		program = timeline.Program
	case *logPath != "":
		if err := vppb.CheckLogFormat(*format); err != nil {
			return cli.UsageError{Err: err}
		}
		p, err := cli.ReadLog("vppb-view", *logPath, *format, *strict, *repair, stderr)
		if err != nil {
			return err
		}
		res, err := vppb.SimulateProfile(p.Profile, vppb.Machine{CPUs: *cpus, LWPs: *lwps})
		if err != nil {
			return err
		}
		timeline = res.Timeline
		program = p.Log.Header.Program
	default:
		return cli.Usagef("need -log or -timeline")
	}
	view, err := vppb.NewView(timeline)
	if err != nil {
		return err
	}

	if *window != "" {
		lo, hi, ok := strings.Cut(*window, ",")
		if !ok {
			return cli.Usagef("-window wants start,end")
		}
		start, err1 := strconv.ParseFloat(lo, 64)
		end, err2 := strconv.ParseFloat(hi, 64)
		if err1 != nil || err2 != nil {
			return cli.Usagef("-window wants numbers, got %q", *window)
		}
		if err := view.SetWindow(
			vppb.Time(start*float64(vppb.Second)),
			vppb.Time(end*float64(vppb.Second))); err != nil {
			return err
		}
	}
	for i := 0; i < *zoomIn; i++ {
		view.ZoomIn(vppb.ZoomFine)
	}
	view.SetCompressed(*compress)
	if *threads != "" {
		var ids []vppb.ThreadID
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return cli.Usagef("-threads: %v", err)
			}
			ids = append(ids, vppb.ThreadID(n))
		}
		view.SelectThreads(ids...)
	}

	if *inspect != 0 {
		in := vppb.NewInspector(timeline)
		ref, ok := in.At(vppb.ThreadID(*inspect), vppb.Time(*at*float64(vppb.Second)))
		if !ok {
			return fmt.Errorf("thread T%d has no events", *inspect)
		}
		desc, err := in.Describe(ref)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, desc)
		if *showSrc {
			excerpt, err := in.SourceExcerpt(ref, 3)
			if err != nil {
				fmt.Fprintln(stderr, "vppb-view: source:", err)
			} else {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, excerpt)
			}
		}
		return nil
	}

	fmt.Fprint(stdout, vppb.RenderASCII(view, vppb.ASCIIOptions{Width: *width, MaxFlowRows: *maxRows}))
	if *lanes {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, vppb.RenderCPULanesASCII(view, vppb.ASCIIOptions{Width: *width}))
	}

	if *svgPath != "" {
		svg := vppb.RenderSVG(view, vppb.SVGOptions{
			Title: fmt.Sprintf("%s on %d simulated CPUs", program, timeline.CPUs),
		})
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *svgPath)
	}
	if *htmlPath != "" {
		page, err := vppb.RenderHTML(view, vppb.HTMLOptions{
			Title: fmt.Sprintf("%s on %d simulated CPUs", program, timeline.CPUs),
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*htmlPath, []byte(page), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *htmlPath)
	}
	if *chromeP != "" {
		data, err := vppb.RenderChromeTrace(timeline)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*chromeP, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *chromeP)
	}
	return nil
}
