// Package source captures and displays the source location of thread-library
// calls.
//
// The paper's Recorder saves the SPARC return-address register (%i7) at each
// probe and later translates addresses to file/line with a debugger
// (section 3.1). Capture does the same with Go's return PCs, except that it
// resolves each PC the first time it is seen and keeps the answer, so a
// probe costs one stack walk and a map lookup and Loc is still recorded
// eagerly instead of post-processed.
// The Visualizer's "start an editor with the line highlighted" feature is
// reproduced by Excerpt, which renders the surrounding source lines with the
// target line marked.
package source

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
)

// Loc identifies a source code position.
type Loc struct {
	File string
	Line int
}

// sites maps a return PC to its resolved Loc. It holds at most one entry
// per call site in the binary, and recording threads share it.
var sites sync.Map

// Capture records the caller's position. skip counts stack frames above
// Capture itself: 0 is the caller of Capture, 1 its caller, and so on.
func Capture(skip int) Loc {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) < 1 {
		return Loc{}
	}
	if loc, ok := sites.Load(pcs[0]); ok {
		return loc.(Loc)
	}
	frame, _ := runtime.CallersFrames(pcs[:]).Next()
	if frame.PC == 0 {
		return Loc{}
	}
	loc := Loc{File: frame.File, Line: frame.Line}
	sites.Store(pcs[0], loc)
	return loc
}

// IsZero reports whether the location is unset.
func (l Loc) IsZero() bool { return l.File == "" && l.Line == 0 }

// String formats the location as "file:line".
func (l Loc) String() string {
	if l.IsZero() {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d", Base(l.File), l.Line)
}

// Base returns the last two path components of file, enough to disambiguate
// without dumping absolute build paths into logs.
func Base(file string) string {
	parts := strings.Split(file, "/")
	if len(parts) <= 2 {
		return file
	}
	return strings.Join(parts[len(parts)-2:], "/")
}

// Excerpt reads the file at l and returns context lines around l.Line with
// the target line highlighted by a "=>" marker, emulating the paper's
// editor-highlight facility. It returns an error if the file cannot be read
// or the line is out of range.
func Excerpt(l Loc, context int) (string, error) {
	if l.IsZero() {
		return "", fmt.Errorf("source: no location recorded")
	}
	data, err := os.ReadFile(l.File)
	if err != nil {
		return "", fmt.Errorf("source: %w", err)
	}
	lines := strings.Split(string(data), "\n")
	if l.Line < 1 || l.Line > len(lines) {
		return "", fmt.Errorf("source: line %d out of range in %s (%d lines)", l.Line, l.File, len(lines))
	}
	lo := l.Line - context
	if lo < 1 {
		lo = 1
	}
	hi := l.Line + context
	if hi > len(lines) {
		hi = len(lines)
	}
	var b strings.Builder
	for n := lo; n <= hi; n++ {
		marker := "  "
		if n == l.Line {
			marker = "=>"
		}
		fmt.Fprintf(&b, "%s %4d | %s\n", marker, n, lines[n-1])
	}
	return b.String(), nil
}
