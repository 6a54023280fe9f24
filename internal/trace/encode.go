package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"vppb/internal/vtime"
)

// The text format is line-oriented and self-describing: a header block,
// thread and object tables, then one "event" line per probe firing with
// key=value fields. It is the durable interchange format between
// vppb-record and vppb-sim. The binary format is a compact varint encoding
// of the same data for large logs.

const textMagic = "# vppb-log v1"

// WriteText writes the log in the text format, streaming record by record
// through a buffered writer: a large log never materializes as one
// contiguous byte slice on the way out.
func WriteText(w io.Writer, l *Log) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	// One scratch line, reused for every record.
	buf := make([]byte, 0, 256)
	buf = appendTextPreamble(buf, l)
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for i := range l.Threads {
		buf = appendThreadLine(buf[:0], &l.Threads[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	for i := range l.Objects {
		buf = appendObjectLine(buf[:0], &l.Objects[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	var q pathQuoter
	for i := range l.Events {
		ev := &l.Events[i]
		buf = appendEventLine(buf[:0], ev, q.quote(ev.Loc.File))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendText appends the text encoding of l to dst and returns the result.
// dst grows at most once, to exactly the encoded size, so a nil dst comes
// back with cap == len.
func AppendText(dst []byte, l *Log) []byte {
	if n := textSize(l); cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	dst = appendTextPreamble(dst, l)
	for i := range l.Threads {
		dst = appendThreadLine(dst, &l.Threads[i])
	}
	for i := range l.Objects {
		dst = appendObjectLine(dst, &l.Objects[i])
	}
	var q pathQuoter
	for i := range l.Events {
		ev := &l.Events[i]
		dst = appendEventLine(dst, ev, q.quote(ev.Loc.File))
	}
	return dst
}

// textSize is the exact length of l's text encoding. The event lines,
// which dominate, are measured field by field in step with
// appendEventLine; the few header and table lines are measured by encoding
// them into one scratch line.
func textSize(l *Log) int {
	line := appendTextPreamble(make([]byte, 0, 256), l)
	n := len(line)
	for i := range l.Threads {
		line = appendThreadLine(line[:0], &l.Threads[i])
		n += len(line)
	}
	for i := range l.Objects {
		line = appendObjectLine(line[:0], &l.Objects[i])
		n += len(line)
	}
	var q pathQuoter
	for i := range l.Events {
		ev := &l.Events[i]
		n += eventLineLen(ev, len(q.quote(ev.Loc.File)))
	}
	return n
}

// pathQuoter quotes source paths once per run of equal paths: consecutive
// events mostly share a file. WriteText, AppendText and textSize all take
// an event's encoded path from it.
type pathQuoter struct{ file, quoted string }

func (q *pathQuoter) quote(file string) string {
	// quote never returns "", so the zero pathQuoter holds nothing.
	if file != q.file || q.quoted == "" {
		q.file, q.quoted = file, quote(file)
	}
	return q.quoted
}

// eventLineLen is the length of appendEventLine's output for ev, given the
// length of ev.Loc.File's encoded form.
func eventLineLen(ev *Event, fileLen int) int {
	n := len("event ") + decLen(ev.Seq) + len(" ") + decLen(int64(ev.Time)) +
		len(" T") + decLen(int64(ev.Thread)) + len(" ") + len(ev.Class.String()) +
		len(" ") + len(ev.Call.String())
	if ev.Object != 0 {
		n += len(" obj=") + decLen(int64(ev.Object))
	}
	if ev.Mutex != 0 {
		n += len(" mutex=") + decLen(int64(ev.Mutex))
	}
	if ev.Target != 0 {
		n += len(" target=") + decLen(int64(ev.Target))
	}
	if hasOutcome(ev.Call) {
		n += len(" ok=0")
	}
	if ev.Timeout != 0 {
		n += len(" timeout=") + decLen(int64(ev.Timeout))
	}
	if ev.Prio != 0 {
		n += len(" prio=") + decLen(int64(ev.Prio))
	}
	if !ev.Loc.IsZero() {
		n += len(" loc=") + fileLen + len(":") + decLen(int64(ev.Loc.Line))
	}
	return n + len("\n")
}

// decLen is the length of strconv.AppendInt(nil, v, 10).
func decLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

func appendTextPreamble(dst []byte, l *Log) []byte {
	dst = append(dst, textMagic...)
	dst = append(dst, '\n')
	dst = append(dst, "program "...)
	dst = append(dst, quote(l.Header.Program)...)
	dst = append(dst, "\ncpus "...)
	dst = strconv.AppendInt(dst, int64(l.Header.CPUs), 10)
	dst = append(dst, "\nlwps "...)
	dst = strconv.AppendInt(dst, int64(l.Header.LWPs), 10)
	dst = append(dst, "\nprobecost "...)
	dst = strconv.AppendInt(dst, int64(l.Header.ProbeCost), 10)
	dst = append(dst, "\nstart "...)
	dst = strconv.AppendInt(dst, int64(l.Header.Start), 10)
	dst = append(dst, "\nend "...)
	dst = strconv.AppendInt(dst, int64(l.Header.End), 10)
	return append(dst, '\n')
}

func appendThreadLine(dst []byte, t *ThreadInfo) []byte {
	dst = append(dst, "thread "...)
	dst = strconv.AppendInt(dst, int64(t.ID), 10)
	dst = append(dst, " name="...)
	dst = append(dst, quote(t.Name)...)
	dst = append(dst, " func="...)
	dst = append(dst, quote(t.Func)...)
	dst = append(dst, " bound="...)
	dst = strconv.AppendInt(dst, int64(b2i(t.Bound)), 10)
	dst = append(dst, " boundcpu="...)
	dst = strconv.AppendInt(dst, int64(t.BoundCPU), 10)
	dst = append(dst, " prio="...)
	dst = strconv.AppendInt(dst, int64(t.Prio), 10)
	return append(dst, '\n')
}

func appendObjectLine(dst []byte, o *ObjectInfo) []byte {
	dst = append(dst, "object "...)
	dst = strconv.AppendInt(dst, int64(o.ID), 10)
	dst = append(dst, " kind="...)
	dst = append(dst, o.Kind.String()...)
	dst = append(dst, " name="...)
	dst = append(dst, quote(o.Name)...)
	dst = append(dst, " count="...)
	dst = strconv.AppendInt(dst, int64(o.InitCount), 10)
	return append(dst, '\n')
}

// appendEventLine appends ev's line, given file, the encoded form of
// ev.Loc.File.
func appendEventLine(dst []byte, ev *Event, file string) []byte {
	dst = append(dst, "event "...)
	dst = strconv.AppendInt(dst, ev.Seq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(ev.Time), 10)
	dst = append(dst, ' ', 'T')
	dst = strconv.AppendInt(dst, int64(ev.Thread), 10)
	dst = append(dst, ' ')
	dst = append(dst, ev.Class.String()...)
	dst = append(dst, ' ')
	dst = append(dst, ev.Call.String()...)
	if ev.Object != 0 {
		dst = append(dst, " obj="...)
		dst = strconv.AppendInt(dst, int64(ev.Object), 10)
	}
	if ev.Mutex != 0 {
		dst = append(dst, " mutex="...)
		dst = strconv.AppendInt(dst, int64(ev.Mutex), 10)
	}
	if ev.Target != 0 {
		dst = append(dst, " target="...)
		dst = strconv.AppendInt(dst, int64(ev.Target), 10)
	}
	if hasOutcome(ev.Call) {
		dst = append(dst, " ok="...)
		dst = strconv.AppendInt(dst, int64(b2i(ev.OK)), 10)
	}
	if ev.Timeout != 0 {
		dst = append(dst, " timeout="...)
		dst = strconv.AppendInt(dst, int64(ev.Timeout), 10)
	}
	if ev.Prio != 0 {
		dst = append(dst, " prio="...)
		dst = strconv.AppendInt(dst, int64(ev.Prio), 10)
	}
	if !ev.Loc.IsZero() {
		dst = append(dst, " loc="...)
		dst = append(dst, file...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(ev.Loc.Line), 10)
	}
	return append(dst, '\n')
}

// quote escapes a name so it survives as exactly one whitespace-delimited
// field of the text format: "-" stands for the empty string, backslash
// introduces escapes, and every rune that strings.Fields would split on
// (any Unicode space) is encoded. A plain s comes back as itself, without
// allocating.
func quote(s string) string {
	if s == "" {
		return "-"
	}
	if s == "-" {
		return `\-`
	}
	if !needsQuoting(s) {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r == '\\':
			b.WriteString(`\\`)
		case r == ' ':
			b.WriteString(`\s`)
		case r == '\n':
			b.WriteString(`\n`)
		case r == '\t':
			b.WriteString(`\t`)
		case unicode.IsSpace(r):
			// The remaining Unicode spaces (\r, NBSP, U+2028, ...) are all
			// in the BMP, so four hex digits always suffice.
			fmt.Fprintf(&b, `\u%04x`, r)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// needsQuoting reports whether s holds a backslash or a Unicode space.
// Nearly every name and source path in a log is plain ASCII, so its bytes
// are tested directly; runes are decoded only from the first byte that is
// not ASCII on.
func needsQuoting(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			for _, r := range s[i:] {
				if r == '\\' || unicode.IsSpace(r) {
					return true
				}
			}
			return false
		case c == '\\' || c == ' ' || '\t' <= c && c <= '\r':
			return true
		}
	}
	return false
}

// unquote is the exact inverse of quote.
func unquote(s string) string {
	if s == "-" {
		return ""
	}
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 's':
			b.WriteByte(' ')
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case '-':
			b.WriteByte('-')
		case 'u':
			if i+4 < len(s) {
				if v, err := strconv.ParseUint(s[i+1:i+5], 16, 32); err == nil {
					b.WriteRune(rune(v))
					i += 4
					continue
				}
			}
			b.WriteString(`\u`)
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// maxLineBytes bounds one line of the text format. A longer line fails
// with bufio.ErrTooLong, the error the reader has always reported for it.
const maxLineBytes = 1 << 26

// IsBinary reports whether data opens with the binary encoding's "VPPB"
// prefix. It is the one rule that tells the encodings apart: input that
// claims to be binary is diagnosed by DecodeBinary, however short.
func IsBinary(data []byte) bool {
	return bytes.HasPrefix(data, binMagic[:4])
}

// Decode parses a log held in memory, in either encoding.
func Decode(data []byte) (*Log, error) {
	if IsBinary(data) {
		return DecodeBinary(data)
	}
	return DecodeText(data)
}

// ReadText parses a text-format log from a stream.
func ReadText(r io.Reader) (*Log, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return DecodeText(data)
}

// DecodeText parses a text-format log held in memory. It walks data line
// by line in place. The only strings it allocates are one copy of each
// distinct name and source file, so the log never aliases data.
func DecodeText(data []byte) (*Log, error) {
	d := textDecoder{l: &Log{}, strs: make(map[string]string)}
	// The first line is the magic, so every event line follows a newline:
	// the count sizes Events for well-formed input and can never exceed
	// len(data)/7.
	if n := bytes.Count(data, []byte("\nevent ")); n > 0 {
		d.l.Events = make([]Event, 0, n)
	}
	lineNo := 0
	sawMagic := false
	for rest := data; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		lineNo++
		if len(line) >= maxLineBytes {
			return nil, fmt.Errorf("trace: %w", bufio.ErrTooLong)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if !sawMagic {
			if string(line) != textMagic {
				return nil, fmt.Errorf("trace: line %d: not a vppb log (missing %q)", lineNo, textMagic)
			}
			sawMagic = true
			continue
		}
		if line[0] == '#' {
			continue
		}
		d.fields = appendFields(d.fields[:0], line)
		if err := d.parseLine(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
	}
	if !sawMagic {
		return nil, fmt.Errorf("trace: empty input")
	}
	return d.l, nil
}

// appendFields appends the fields of line to dst with strings.Fields
// semantics. A line of printable ASCII and ' ' alone, as every line the
// encoders write is, is checked and split eight bytes at a time. Any other
// line goes through bytes.Fields, which splits on every Unicode space.
func appendFields(dst [][]byte, line []byte) [][]byte {
	const ones, lows, highs = 0x0101010101010101, 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	const spaces = ' ' * ones
	n, start, i := len(dst), 0, 0
	for ; i+8 <= len(line); i += 8 {
		w := binary.LittleEndian.Uint64(line[i:])
		// A byte below ' ' borrows into its high bit in w-spaces; a byte
		// of 0x7f or above has its high bit set in w or in w+ones. A carry
		// or borrow crosses bytes only from a byte that is flagged itself.
		if ((w-spaces)&^w|(w+ones)|w)&highs != 0 {
			return append(dst[:n], bytes.Fields(line)...)
		}
		// Every byte of t is below 0x80, and zero where w holds ' ': adding
		// 0x7f sets the high bit of every other byte, with no carry.
		t := w ^ spaces
		for sp := ^(t + lows) & highs; sp != 0; sp &= sp - 1 {
			j := i + bits.TrailingZeros64(sp)/8
			if j > start {
				dst = append(dst, line[start:j])
			}
			start = j + 1
		}
	}
	for ; i < len(line); i++ {
		switch c := line[i]; {
		case c == ' ':
			if i > start {
				dst = append(dst, line[start:i])
			}
			start = i + 1
		case c < ' ' || c > '~':
			return append(dst[:n], bytes.Fields(line)...)
		}
	}
	if start < len(line) {
		dst = append(dst, line[start:])
	}
	return dst
}

// textDecoder holds the state of one DecodeText call.
type textDecoder struct {
	l *Log
	// fields is the current line split into subslices of the input,
	// reused from line to line.
	fields [][]byte
	// strs interns decoded strings by their encoded form.
	strs map[string]string
	// locKey and locFile are the encoded and decoded file of the last
	// loc= field: consecutive events mostly share a source file.
	locKey  []byte
	locFile string
}

// str decodes a quoted name, returning the one copy this log keeps of it.
func (d *textDecoder) str(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	k := string(b)
	s := unquote(k)
	d.strs[k] = s
	return s
}

// parseInt is strconv.ParseInt(string(b), 10, bitSize), with a field of at
// most 9 digits, which fits any bitSize, parsed inline.
func parseInt(b []byte, bitSize int) (int64, error) {
	if v, ok := parseShort(b); ok {
		return int64(v), nil
	}
	return strconv.ParseInt(string(b), 10, bitSize)
}

// parseShort parses an optional sign and 1 to 9 decimal digits. It reports
// false for anything else, which strconv then parses or diagnoses.
func parseShort(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg, b = b[0] == '-', b[1:]
	}
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	v := 0
	for _, c := range b {
		if c-'0' > 9 {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

func parseInt32(b []byte) (int32, error) {
	n, err := parseInt(b, 32)
	return int32(n), err
}

// parseCall is ParseCall for a field of the input.
func parseCall(b []byte) (Call, error) {
	if c, ok := callByName[string(b)]; ok {
		return c, nil
	}
	return ParseCall(string(b))
}

func (d *textDecoder) parseLine() error {
	fields := d.fields
	switch string(fields[0]) {
	case "program":
		if len(fields) > 1 {
			d.l.Header.Program = d.str(fields[1])
		}
	case "cpus", "lwps", "probecost", "start", "end":
		if len(fields) < 2 {
			return fmt.Errorf("%s: missing value", fields[0])
		}
		v, err := parseInt(fields[1], 64)
		if err != nil {
			return fmt.Errorf("%s: %w", fields[0], err)
		}
		h := &d.l.Header
		switch string(fields[0]) {
		case "cpus":
			h.CPUs = int(v)
		case "lwps":
			h.LWPs = int(v)
		case "probecost":
			h.ProbeCost = vtime.Duration(v)
		case "start":
			h.Start = vtime.Time(v)
		case "end":
			h.End = vtime.Time(v)
		}
	case "thread":
		return d.parseThread()
	case "object":
		return d.parseObject()
	case "event":
		return d.parseEvent()
	default:
		return fmt.Errorf("unknown record %q", fields[0])
	}
	return nil
}

func (d *textDecoder) parseThread() error {
	fields := d.fields
	if len(fields) < 2 {
		return fmt.Errorf("thread: missing id")
	}
	id, err := parseInt32(fields[1])
	if err != nil {
		return fmt.Errorf("thread id: %w", err)
	}
	t := ThreadInfo{ID: ThreadID(id), BoundCPU: -1}
	for _, f := range fields[2:] {
		k, v, ok := bytes.Cut(f, []byte("="))
		if !ok {
			return fmt.Errorf("thread: malformed field %q", f)
		}
		switch string(k) {
		case "name":
			t.Name = d.str(v)
		case "func":
			t.Func = d.str(v)
		case "bound":
			t.Bound = string(v) == "1"
		case "boundcpu":
			if t.BoundCPU, err = parseInt32(v); err != nil {
				return err
			}
		case "prio":
			if t.Prio, err = parseInt32(v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("thread: unknown field %q", k)
		}
	}
	d.l.Threads = append(d.l.Threads, t)
	return nil
}

func (d *textDecoder) parseObject() error {
	fields := d.fields
	if len(fields) < 2 {
		return fmt.Errorf("object: missing id")
	}
	id, err := parseInt32(fields[1])
	if err != nil {
		return fmt.Errorf("object id: %w", err)
	}
	o := ObjectInfo{ID: ObjectID(id)}
	for _, f := range fields[2:] {
		k, v, ok := bytes.Cut(f, []byte("="))
		if !ok {
			return fmt.Errorf("object: malformed field %q", f)
		}
		switch string(k) {
		case "kind":
			switch string(v) {
			case "mutex":
				o.Kind = ObjMutex
			case "sema":
				o.Kind = ObjSema
			case "cond":
				o.Kind = ObjCond
			case "rwlock":
				o.Kind = ObjRWLock
			case "device":
				o.Kind = ObjDevice
			default:
				return fmt.Errorf("object: unknown kind %q", v)
			}
		case "name":
			o.Name = d.str(v)
		case "count":
			if o.InitCount, err = parseInt32(v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("object: unknown field %q", k)
		}
	}
	if o.Kind == ObjNone {
		return fmt.Errorf("object %d: missing kind", o.ID)
	}
	d.l.Objects = append(d.l.Objects, o)
	return nil
}

func (d *textDecoder) parseEvent() error {
	fields := d.fields
	if len(fields) < 6 {
		return fmt.Errorf("event: want at least 6 fields, got %d", len(fields))
	}
	var ev Event
	var err error
	if ev.Seq, err = parseInt(fields[1], 64); err != nil {
		return fmt.Errorf("event seq: %w", err)
	}
	ts, err := parseInt(fields[2], 64)
	if err != nil {
		return fmt.Errorf("event time: %w", err)
	}
	ev.Time = vtime.Time(ts)
	if fields[3][0] != 'T' {
		return fmt.Errorf("event thread: %q", fields[3])
	}
	tid, err := parseInt32(fields[3][1:])
	if err != nil {
		return fmt.Errorf("event thread: %w", err)
	}
	ev.Thread = ThreadID(tid)
	switch string(fields[4]) {
	case "before":
		ev.Class = Before
	case "after":
		ev.Class = After
	default:
		return fmt.Errorf("event class: %q", fields[4])
	}
	if ev.Call, err = parseCall(fields[5]); err != nil {
		return err
	}
	for _, f := range fields[6:] {
		k, v, ok := bytes.Cut(f, []byte("="))
		if !ok {
			return fmt.Errorf("event: malformed field %q", f)
		}
		var n int32
		switch string(k) {
		case "obj":
			n, err = parseInt32(v)
			ev.Object = ObjectID(n)
		case "mutex":
			n, err = parseInt32(v)
			ev.Mutex = ObjectID(n)
		case "target":
			n, err = parseInt32(v)
			ev.Target = ThreadID(n)
		case "ok":
			ev.OK = string(v) == "1"
		case "timeout":
			var t int64
			t, err = parseInt(v, 64)
			ev.Timeout = vtime.Duration(t)
		case "prio":
			ev.Prio, err = parseInt32(v)
		case "loc":
			i := bytes.LastIndexByte(v, ':')
			if i < 0 {
				return fmt.Errorf("event loc: %q", v)
			}
			line, ok := parseShort(v[i+1:])
			if !ok {
				if line, err = strconv.Atoi(string(v[i+1:])); err != nil {
					return err
				}
			}
			ev.Loc.Line = line
			if !bytes.Equal(v[:i], d.locKey) {
				d.locKey, d.locFile = v[:i], d.str(v[:i])
			}
			ev.Loc.File = d.locFile
		default:
			return fmt.Errorf("event: unknown field %q", k)
		}
		if err != nil {
			return err
		}
	}
	d.l.Events = append(d.l.Events, ev)
	return nil
}

// FormatPaper renders the log the way the paper's figure 2 lists Recorder
// output: one line per event, "<seconds> <thread> <call> <operand>", with
// completions shown as "ok <call>".
func FormatPaper(l *Log) string {
	var b strings.Builder
	for _, ev := range l.Events {
		name := l.ThreadName(ev.Thread)
		var what string
		switch {
		case ev.Class == After && ev.Call == CallThrJoin:
			what = fmt.Sprintf("ok thr_join %s", l.ThreadName(ev.Target))
		case ev.Class == After:
			what = fmt.Sprintf("ok %s%s", ev.Call, operand(l, ev))
		default:
			what = fmt.Sprintf("%s%s", ev.Call, operand(l, ev))
		}
		fmt.Fprintf(&b, "%-8s %-4s %s\n", ev.Time, name, what)
	}
	return b.String()
}

func operand(l *Log, ev Event) string {
	switch {
	case ev.Call == CallThrCreate && ev.Target != 0:
		return " " + l.ThreadName(ev.Target)
	case ev.Call == CallThrJoin:
		if ev.Target == 0 {
			return " <any>"
		}
		return " " + l.ThreadName(ev.Target)
	case ev.Object != 0:
		return " " + l.ObjectName(ev.Object)
	}
	return ""
}

// Binary encoding: a magic header, varint-encoded tables and events with
// time deltas. Strings are interned in a table to keep large logs small.

var binMagic = []byte("VPPBLOG1")

// AppendBinary appends the binary encoding of l to dst.
func AppendBinary(dst []byte, l *Log) []byte {
	e := binEncoder{buf: append(dst, binMagic...), strs: map[string]uint64{}}
	e.str(l.Header.Program)
	e.uv(uint64(l.Header.CPUs))
	e.uv(uint64(l.Header.LWPs))
	e.uv(uint64(l.Header.ProbeCost))
	e.uv(uint64(l.Header.Start))
	e.uv(uint64(l.Header.End))
	e.uv(uint64(len(l.Threads)))
	for _, t := range l.Threads {
		e.sv(int64(t.ID))
		e.str(t.Name)
		e.str(t.Func)
		e.uv(uint64(b2i(t.Bound)))
		e.sv(int64(t.BoundCPU))
		e.sv(int64(t.Prio))
	}
	e.uv(uint64(len(l.Objects)))
	for _, o := range l.Objects {
		e.sv(int64(o.ID))
		e.uv(uint64(o.Kind))
		e.str(o.Name)
		e.sv(int64(o.InitCount))
	}
	e.uv(uint64(len(l.Events)))
	var prevTime vtime.Time
	var prevSeq int64
	for _, ev := range l.Events {
		e.sv(ev.Seq - prevSeq)
		prevSeq = ev.Seq
		e.sv(int64(ev.Time - prevTime))
		prevTime = ev.Time
		e.sv(int64(ev.Thread))
		e.uv(uint64(ev.Class))
		e.uv(uint64(ev.Call))
		e.sv(int64(ev.Object))
		e.sv(int64(ev.Mutex))
		e.sv(int64(ev.Target))
		e.uv(uint64(b2i(ev.OK)))
		e.sv(int64(ev.Timeout))
		e.sv(int64(ev.Prio))
		e.str(ev.Loc.File)
		e.sv(int64(ev.Loc.Line))
	}
	return e.buf
}

// DecodeBinary parses a binary-format log.
func DecodeBinary(data []byte) (*Log, error) {
	if len(data) < len(binMagic) || string(data[:len(binMagic)]) != string(binMagic) {
		return nil, fmt.Errorf("trace: not a vppb binary log")
	}
	d := binDecoder{buf: data[len(binMagic):]}
	l := &Log{}
	l.Header.Program = d.str()
	l.Header.CPUs = int(d.uv())
	l.Header.LWPs = int(d.uv())
	l.Header.ProbeCost = vtime.Duration(d.uv())
	l.Header.Start = vtime.Time(d.uv())
	l.Header.End = vtime.Time(d.uv())
	nThreads := d.uv()
	if d.err == nil && nThreads > uint64(len(data)) {
		return nil, fmt.Errorf("trace: corrupt binary log: %d threads", nThreads)
	}
	l.Threads = presize[ThreadInfo](nThreads, d.rest(), minThreadBytes)
	for i := uint64(0); i < nThreads && d.err == nil; i++ {
		var t ThreadInfo
		t.ID = ThreadID(d.sv())
		t.Name = d.str()
		t.Func = d.str()
		t.Bound = d.uv() == 1
		t.BoundCPU = int32(d.sv())
		t.Prio = int32(d.sv())
		l.Threads = append(l.Threads, t)
	}
	nObjects := d.uv()
	if d.err == nil && nObjects > uint64(len(data)) {
		return nil, fmt.Errorf("trace: corrupt binary log: %d objects", nObjects)
	}
	l.Objects = presize[ObjectInfo](nObjects, d.rest(), minObjectBytes)
	for i := uint64(0); i < nObjects && d.err == nil; i++ {
		var o ObjectInfo
		o.ID = ObjectID(d.sv())
		o.Kind = ObjectKind(d.uv())
		o.Name = d.str()
		o.InitCount = int32(d.sv())
		l.Objects = append(l.Objects, o)
	}
	nEvents := d.uv()
	if d.err == nil && nEvents > uint64(len(data)) {
		return nil, fmt.Errorf("trace: corrupt binary log: %d events", nEvents)
	}
	l.Events = presize[Event](nEvents, d.rest(), minEventBytes)
	var prevTime vtime.Time
	var prevSeq int64
	for i := uint64(0); i < nEvents && d.err == nil; i++ {
		var ev Event
		prevSeq += d.sv()
		ev.Seq = prevSeq
		prevTime += vtime.Time(d.sv())
		ev.Time = prevTime
		ev.Thread = ThreadID(d.sv())
		ev.Class = EventClass(d.uv())
		ev.Call = Call(d.uv())
		ev.Object = ObjectID(d.sv())
		ev.Mutex = ObjectID(d.sv())
		ev.Target = ThreadID(d.sv())
		ev.OK = d.uv() == 1
		ev.Timeout = vtime.Duration(d.sv())
		ev.Prio = int32(d.sv())
		ev.Loc.File = d.str()
		ev.Loc.Line = int(d.sv())
		if d.err != nil {
			// Keep a truncated tail from growing past the presized table.
			break
		}
		l.Events = append(l.Events, ev)
	}
	if d.err != nil {
		return nil, fmt.Errorf("trace: corrupt binary log: %w", d.err)
	}
	return l, nil
}

// The fewest bytes one record of each table can take: one per varint
// field, string references included.
const (
	minThreadBytes = 6
	minObjectBytes = 4
	minEventBytes  = 13
)

// presize reserves room for a declared count of records, capped by how
// many the rest of the input can hold, so a hostile count never reserves
// more than a small multiple of the input. A zero count stays nil, as an
// append-grown table would.
func presize[T any](n uint64, rest []byte, minBytes int) []T {
	if c := uint64(len(rest) / minBytes); n > c {
		n = c
	}
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

type binEncoder struct {
	buf  []byte
	strs map[string]uint64
	next uint64
}

func (e *binEncoder) uv(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *binEncoder) sv(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

// str writes a string with interning: the first occurrence writes the
// bytes, later occurrences write only the table index.
func (e *binEncoder) str(s string) {
	if id, ok := e.strs[s]; ok {
		e.uv(id + 1)
		return
	}
	e.strs[s] = e.next
	e.next++
	e.uv(0)
	e.uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

type binDecoder struct {
	buf []byte
	// off is the read offset in buf. The first error moves it to the end,
	// so every later read fails over to the slow paths, which return zero.
	off  int
	strs []string
	err  error
}

func (d *binDecoder) rest() []byte { return d.buf[d.off:] }

func (d *binDecoder) fail(err error) { d.err, d.off = err, len(d.buf) }

// uv and sv read one varint. Most fields fit in one byte, which they read
// inline; the rest go through encoding/binary.
func (d *binDecoder) uv() uint64 {
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		d.off++
		return uint64(d.buf[d.off-1])
	}
	return d.uvarint()
}

func (d *binDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.rest())
	if n <= 0 {
		d.fail(fmt.Errorf("truncated uvarint"))
		return 0
	}
	d.off += n
	return v
}

func (d *binDecoder) sv() int64 {
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		b := d.buf[d.off]
		d.off++
		// Zig-zag: the low bit is the sign.
		return int64(b>>1) ^ -int64(b&1)
	}
	return d.varint()
}

func (d *binDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.rest())
	if n <= 0 {
		d.fail(fmt.Errorf("truncated varint"))
		return 0
	}
	d.off += n
	return v
}

func (d *binDecoder) str() string {
	id := d.uv()
	if d.err != nil {
		return ""
	}
	if id > 0 {
		// Compared unsigned: an index above MaxInt would turn negative as
		// an int.
		if id-1 >= uint64(len(d.strs)) {
			d.fail(fmt.Errorf("string index %d out of range", id-1))
			return ""
		}
		return d.strs[id-1]
	}
	n := d.uv()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.rest())) {
		d.fail(fmt.Errorf("truncated string"))
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	d.strs = append(d.strs, s)
	return s
}
