package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestTimelineRoundTrip(t *testing.T) {
	tl := buildSmallTimeline()
	tl.Objects = []ObjectInfo{{ID: 1, Kind: ObjMutex, Name: "m"}}
	data, err := MarshalTimeline(tl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTimeline(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tl, got)
	}
}

func TestTimelineStreamRoundTrip(t *testing.T) {
	tl := buildSmallTimeline()
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != tl.Duration || len(got.Threads) != len(tl.Threads) {
		t.Fatal("stream round trip lost data")
	}
}

func TestTimelineCodecRejects(t *testing.T) {
	if _, err := MarshalTimeline(nil); err == nil {
		t.Fatal("nil accepted")
	}
	cases := []string{
		``,
		`{}`,
		`{"format":"something-else","version":1,"data":{}}`,
		`{"format":"vppb-timeline","version":99,"data":{}}`,
		`{"format":"vppb-timeline","version":1}`,
		`not json at all`,
	}
	for _, c := range cases {
		if _, err := UnmarshalTimeline([]byte(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestTimelineCodecValidates(t *testing.T) {
	// A structurally broken timeline (overlapping CPU use) must be
	// rejected at decode time.
	data, err := MarshalTimeline(&Timeline{
		CPUs: 1, Duration: 100,
		Threads: []ThreadTimeline{
			{Info: ThreadInfo{ID: 1}, Spans: []Span{{Start: 0, End: 50, State: StateRunning, CPU: 0}}},
			{Info: ThreadInfo{ID: 2}, Spans: []Span{{Start: 25, End: 75, State: StateRunning, CPU: 0}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalTimeline(data); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("err = %v", err)
	}
}

// oldTimeline is a timeline as written before source.Loc lost its Func
// field: event keys in the old field order, and a "Func" key in Loc.
const oldTimeline = `{"format":"vppb-timeline","version":1,"data":{"Program":"old","CPUs":1,"LWPs":1,"Duration":100,"Threads":[{"Info":{"ID":1,"Name":"main","Func":"main.main","Bound":false,"BoundCPU":-1,"Prio":0},"Spans":[{"Start":0,"End":100,"State":2,"CPU":0,"LWP":0}],"Events":[{"Event":{"Seq":3,"Time":100,"Thread":1,"Class":0,"Call":4,"Object":0,"Mutex":0,"Target":0,"OK":false,"Timeout":0,"Prio":0,"Loc":{"File":"/src/main.go","Line":7,"Func":"main.main"}},"CPU":0,"Start":100,"End":100}],"Created":0,"Ended":100}],"Objects":null}}`

func TestUnmarshalTimelineOldFuncKeys(t *testing.T) {
	tl, err := UnmarshalTimeline([]byte(oldTimeline))
	if err != nil {
		t.Fatal(err)
	}
	th := tl.Thread(1)
	if th == nil || th.Info.Func != "main.main" || len(th.Events) != 1 {
		t.Fatalf("thread 1 = %+v", th)
	}
	ev := th.Events[0].Event
	if ev.Seq != 3 || ev.Call != CallThrExit || ev.Loc.File != "/src/main.go" || ev.Loc.Line != 7 {
		t.Fatalf("event = %+v", ev)
	}
}
