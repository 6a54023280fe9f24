package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vppb/internal/trace"
)

// textCorpus returns FuzzReadText's inputs: its seeds and the committed
// corpus files under testdata/fuzz.
func textCorpus(t *testing.T) [][]byte {
	t.Helper()
	inputs := trace.FuzzTextSeeds()
	files, err := filepath.Glob("testdata/fuzz/FuzzReadText/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The corpus format: a "go test fuzz v1" line, then []byte("...").
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		inputs = append(inputs, []byte(data))
	}
	return inputs
}

// TestAppendTextExactSize checks that AppendText grows its destination
// once, to exactly the encoded size, and still appends the bytes the
// streaming WriteText writes. The logs are every accepted fuzz-corpus
// input and the differential recordings.
func TestAppendTextExactSize(t *testing.T) {
	logs := differentialLogs(t)
	for i, data := range textCorpus(t) {
		if l, err := trace.DecodeText(data); err == nil {
			logs["corpus_"+strconv.Itoa(i)] = l
		}
	}
	prefix := []byte("# prefix\n")
	for name, l := range logs {
		var want bytes.Buffer
		if err := trace.WriteText(&want, l); err != nil {
			t.Fatal(err)
		}
		got := trace.AppendText(nil, l)
		if cap(got) != len(got) {
			t.Errorf("%s: nil dst: cap %d, len %d", name, cap(got), len(got))
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: AppendText differs from WriteText", name)
		}
		// A non-empty dst without room is grown once, to the exact size.
		short := append(make([]byte, 0, len(prefix)+1), prefix...)
		got = trace.AppendText(short, l)
		if !bytes.Equal(got, append(append([]byte(nil), prefix...), want.Bytes()...)) {
			t.Errorf("%s: appending to a non-empty dst changed the bytes", name)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: non-empty dst: cap %d, len %d", name, cap(got), len(got))
		}
		// A dst with exactly enough room is appended in place.
		room := append(make([]byte, 0, len(prefix)+want.Len()), prefix...)
		if got = trace.AppendText(room, l); &got[0] != &room[0] {
			t.Errorf("%s: dst with room was reallocated", name)
		}
	}
}
