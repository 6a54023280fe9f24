package source

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCapture(t *testing.T) {
	loc, line := Capture(0), lineHere()
	if !strings.HasSuffix(loc.File, "source_test.go") {
		t.Fatalf("File = %q, want suffix source_test.go", loc.File)
	}
	if loc.Line != line {
		t.Fatalf("Line = %d, want %d", loc.Line, line)
	}
}

// lineHere returns the line of its call site.
func lineHere() int {
	_, _, line, _ := runtime.Caller(1)
	return line
}

func helperCapture() Loc { return Capture(1) }

func TestCaptureSkip(t *testing.T) {
	loc, line := helperCapture(), lineHere()
	if !strings.HasSuffix(loc.File, "source_test.go") || loc.Line != line {
		t.Fatalf("skip=1 should report the caller at line %d, got %s:%d", line, loc.File, loc.Line)
	}
}

// callerLoc is the reference Capture: one runtime.Caller per call, no
// cache. skip has Capture's meaning.
func callerLoc(skip int) Loc {
	_, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return Loc{}
	}
	return Loc{File: file, Line: line}
}

// Each helper captures one frame both ways, from one line, so the two
// results must be equal.

func skipHelper() (got, want Loc) { return Capture(1), callerLoc(1) }

//go:noinline
func noinlineHelper() (got, want Loc) { return Capture(1), callerLoc(1) }

//go:noinline
func twoUp() (got, want Loc) { return Capture(2), callerLoc(2) }

// inlinableHelper is small enough to be inlined into its caller, so the
// frame twoUp reports is an inlined one.
func inlinableHelper() (got, want Loc) { return twoUp() }

var captureCases = []struct {
	name string
	call func() (got, want Loc)
}{
	{"direct", func() (Loc, Loc) { return Capture(0), callerLoc(0) }},
	{"skip=1 helper", skipHelper},
	{"inlinable helper", func() (Loc, Loc) { return inlinableHelper() }},
	{"noinline helper", noinlineHelper},
}

// TestCaptureMatchesCaller checks that the cached Capture returns what
// runtime.Caller does, on the first call at a site (a cache miss) and on
// the second (a hit).
func TestCaptureMatchesCaller(t *testing.T) {
	for _, c := range captureCases {
		for i := 0; i < 2; i++ {
			got, want := c.call()
			if want.IsZero() || !strings.HasSuffix(want.File, "source_test.go") {
				t.Fatalf("%s: reference location %+v", c.name, want)
			}
			if got != want {
				t.Fatalf("%s, call %d: Capture = %+v, runtime.Caller = %+v", c.name, i, got, want)
			}
		}
	}
}

// TestCaptureConcurrent resolves the same sites from 8 goroutines at once,
// as concurrent recordings do; run it under -race.
func TestCaptureConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, c := range captureCases {
					if got, want := c.call(); got != want {
						errs <- c.name
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: Capture disagrees with runtime.Caller under concurrency", name)
	}
}

func TestString(t *testing.T) {
	l := Loc{File: "/a/b/c/d.go", Line: 12}
	if got := l.String(); got != "c/d.go:12" {
		t.Fatalf("String = %q", got)
	}
	var zero Loc
	if zero.String() != "<unknown>" {
		t.Fatalf("zero String = %q", zero.String())
	}
	if !zero.IsZero() {
		t.Fatal("zero Loc should report IsZero")
	}
}

func TestBaseShortPath(t *testing.T) {
	if got := Base("d.go"); got != "d.go" {
		t.Fatalf("Base short = %q", got)
	}
	if got := Base("x/d.go"); got != "x/d.go" {
		t.Fatalf("Base two-part = %q", got)
	}
}

func TestExcerptHighlightsLine(t *testing.T) {
	loc := Capture(0)
	out, err := Excerpt(loc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=>") {
		t.Fatal("no highlight marker in excerpt")
	}
	if !strings.Contains(out, "Capture(0)") {
		t.Fatalf("excerpt missing target line content:\n%s", out)
	}
	// Marker must sit on the recorded line number.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "=>") && !strings.Contains(line, "Capture(0)") {
			t.Fatalf("highlight on wrong line: %q", line)
		}
	}
}

func TestExcerptErrors(t *testing.T) {
	if _, err := Excerpt(Loc{}, 1); err == nil {
		t.Fatal("zero Loc should error")
	}
	if _, err := Excerpt(Loc{File: "/nonexistent/file.go", Line: 1}, 1); err == nil {
		t.Fatal("missing file should error")
	}
	loc := Capture(0)
	loc.Line = 1 << 20
	if _, err := Excerpt(loc, 1); err == nil {
		t.Fatal("out-of-range line should error")
	}
}
