package ingest

import (
	"os"
	"path/filepath"
	"testing"

	"vppb/internal/trace"
)

const goFixture = "../gotrace/testdata/go-mutexchan.trace"

func goTraceBytes(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(goFixture)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// vppbBytes produces native encodings of a real log by converting the Go
// trace fixture and re-encoding it.
func vppbBytes(t *testing.T) (text, bin []byte) {
	t.Helper()
	l, err := Decode(goTraceBytes(t), FormatGoTrace, "")
	if err != nil {
		t.Fatal(err)
	}
	return trace.AppendText(nil, l), trace.AppendBinary(nil, l)
}

func TestDetect(t *testing.T) {
	text, bin := vppbBytes(t)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"go trace", goTraceBytes(t), FormatGoTrace},
		{"vppb text", text, FormatVPPB},
		{"vppb text with leading blanks", append([]byte("\n  \n"), text...), FormatVPPB},
		{"vppb binary", bin, FormatVPPB},
		{"empty", nil, ""},
		{"garbage", []byte("once upon a time"), ""},
		{"json", []byte(`{"traceEvents":[]}`), ""},
	}
	for _, tc := range cases {
		if got := Detect(tc.data); got != tc.want {
			t.Errorf("%s: Detect = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestDecodeAuto(t *testing.T) {
	text, bin := vppbBytes(t)
	for _, data := range [][]byte{goTraceBytes(t), text, bin} {
		l, err := Decode(data, FormatAuto, "")
		if err != nil {
			t.Fatalf("Decode(auto): %v", err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("decoded log invalid: %v", err)
		}
	}
	if _, err := Decode([]byte("nonsense"), FormatAuto, ""); err == nil {
		t.Error("Decode(auto) accepted unrecognizable bytes")
	}
}

func TestDecodeExplicitFormatMismatch(t *testing.T) {
	// Forcing the wrong frontend must fail cleanly, not misparse.
	if _, err := Decode(goTraceBytes(t), FormatVPPB, ""); err == nil {
		t.Error("vppb frontend accepted a Go trace")
	}
	text, _ := vppbBytes(t)
	if _, err := Decode(text, FormatGoTrace, ""); err == nil {
		t.Error("gotrace frontend accepted a vppb log")
	}
	if _, err := Decode(text, "perfetto", ""); err == nil {
		t.Error("Decode accepted an unknown format name")
	}
}

func TestDecodeProgramName(t *testing.T) {
	l, err := Decode(goTraceBytes(t), FormatGoTrace, "myprog")
	if err != nil {
		t.Fatal(err)
	}
	if l.Header.Program != "myprog" {
		t.Errorf("program = %q, want %q", l.Header.Program, "myprog")
	}
}

func TestFile(t *testing.T) {
	l, err := File(goFixture, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Events) == 0 {
		t.Error("no events decoded")
	}
	text, _ := vppbBytes(t)
	path := filepath.Join(t.TempDir(), "log.txt")
	if err := os.WriteFile(path, text, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := File(path, FormatAuto); err != nil {
		t.Errorf("File on vppb text: %v", err)
	}
	if _, err := File(filepath.Join(t.TempDir(), "absent"), FormatAuto); err == nil {
		t.Error("File on a missing path succeeded")
	}
}

func TestCheckFormat(t *testing.T) {
	for _, ok := range Formats() {
		if err := CheckFormat(ok); err != nil {
			t.Errorf("CheckFormat(%q) = %v", ok, err)
		}
	}
	if err := CheckFormat("pprof"); err == nil {
		t.Error("CheckFormat accepted an unknown name")
	}
}

// TestShortBinaryPrefix pins the one sniff rule: any input Detect calls a
// binary vppb log, however short, gets the binary decoder's diagnosis.
func TestShortBinaryPrefix(t *testing.T) {
	for n := 4; n < len("VPPBLOG1"); n++ {
		data := []byte("VPPBLOG1"[:n])
		if got := Detect(data); got != FormatVPPB {
			t.Errorf("%q: Detect = %q, want %q", data, got, FormatVPPB)
		}
		for _, format := range []string{FormatAuto, FormatVPPB} {
			_, err := Decode(data, format, "")
			if err == nil || err.Error() != "trace: not a vppb binary log" {
				t.Errorf("%q as %s: err = %v, want the binary decoder's rejection", data, format, err)
			}
		}
	}
}
