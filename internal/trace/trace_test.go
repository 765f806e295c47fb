package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func buildSampleLog(t *testing.T) *Log {
	t.Helper()
	l := NewLog()
	events := []Event{
		{Job: "sort", Phase: PhaseInit, Task: -1, Start: 0, End: 1},
		{Job: "sort", Phase: PhaseMap, Task: 0, Start: 1, End: 5},
		{Job: "sort", Phase: PhaseMap, Task: 1, Start: 1, End: 7},
		{Job: "sort", Phase: PhaseMap, Task: 2, Start: 1, End: 4},
		{Job: "sort", Phase: PhaseShuffle, Task: -1, Start: 7, End: 9},
		{Job: "sort", Phase: PhaseMerge, Task: -1, Start: 9, End: 15},
		{Job: "sort", Stage: 1, Phase: PhaseCompute, Task: 0, Start: 15, End: 18},
	}
	for _, e := range events {
		if err := l.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestAddRejectsReversedInterval(t *testing.T) {
	l := NewLog()
	if err := l.Add(Event{Start: 5, End: 3}); err == nil {
		t.Error("reversed interval should error")
	}
	if l.Len() != 0 {
		t.Error("rejected event must not be stored")
	}
}

func TestPhaseSpan(t *testing.T) {
	l := buildSampleLog(t)
	start, end, ok := l.PhaseSpan(PhaseMap)
	if !ok || start != 1 || end != 7 {
		t.Errorf("map span = (%g, %g, %v), want (1, 7, true)", start, end, ok)
	}
	if _, _, ok := l.PhaseSpan(PhaseBroadcast); ok {
		t.Error("missing phase should report !ok")
	}
}

func TestPhaseTotal(t *testing.T) {
	l := buildSampleLog(t)
	// Map work: 4 + 6 + 3 = 13 (total, not wall clock).
	if got := l.PhaseTotal(PhaseMap); got != 13 {
		t.Errorf("PhaseTotal(map) = %g, want 13", got)
	}
	if got := l.PhaseTotal(PhaseSpill); got != 0 {
		t.Errorf("PhaseTotal(spill) = %g, want 0", got)
	}
}

func TestTaskDurationsOrderedByTask(t *testing.T) {
	l := buildSampleLog(t)
	got := l.TaskDurations(PhaseMap)
	want := []float64{4, 6, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TaskDurations = %v, want %v", got, want)
	}
}

func TestMaxTaskDuration(t *testing.T) {
	l := buildSampleLog(t)
	mx, ok := l.MaxTaskDuration(PhaseMap)
	if !ok || mx != 6 {
		t.Errorf("MaxTaskDuration = (%g, %v), want (6, true)", mx, ok)
	}
	if _, ok := l.MaxTaskDuration(PhaseMerge); ok {
		t.Error("phase-level-only events should report !ok")
	}
}

func TestStagesAndStageSpan(t *testing.T) {
	l := buildSampleLog(t)
	if got := l.Stages(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Stages = %v, want [0 1]", got)
	}
	start, end, ok := l.StageSpan(1)
	if !ok || start != 15 || end != 18 {
		t.Errorf("StageSpan(1) = (%g, %g, %v), want (15, 18, true)", start, end, ok)
	}
	if _, _, ok := l.StageSpan(7); ok {
		t.Error("missing stage should report !ok")
	}
}

func TestMakeSpan(t *testing.T) {
	l := buildSampleLog(t)
	start, end, ok := l.MakeSpan()
	if !ok || start != 0 || end != 18 {
		t.Errorf("MakeSpan = (%g, %g, %v), want (0, 18, true)", start, end, ok)
	}
	if _, _, ok := NewLog().MakeSpan(); ok {
		t.Error("empty log should report !ok")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := buildSampleLog(t)
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != l.Len() {
		t.Errorf("JSONL lines = %d, want %d", lines, l.Len())
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Events(), l.Events()) {
		t.Error("round-tripped events differ")
	}
}

// TestEventKeysWithoutLaunchFields: an event whose launch fields are
// zero (every simulated engine's) encodes with exactly the six keys of
// the original schema, in order, so simulator logs keep their bytes.
func TestEventKeysWithoutLaunchFields(t *testing.T) {
	b, err := json.Marshal(Event{Job: "sort", Stage: 1, Phase: PhaseMap, Task: -1, Start: 0.5, End: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"job":"sort","stage":1,"phase":"map","task":-1,"start":0.5,"end":2}`; string(b) != want {
		t.Errorf("encoded %s, want %s", b, want)
	}
}

func TestNewLogCopiesEvents(t *testing.T) {
	evs := []Event{{Job: "a", Phase: PhaseMap, End: 1}}
	l := NewLog(evs...)
	evs[0].Job = "mutated"
	if l.Len() != 1 || l.Events()[0].Job != "a" {
		t.Errorf("log = %+v, want its own copy of the one event", l.Events())
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("garbage input should error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"start": 5, "end": 1}`)); err == nil {
		t.Error("reversed interval in file should error")
	}
}

func TestReadJSONMalformedInputs(t *testing.T) {
	valid := `{"job":"sort","stage":0,"phase":"map","task":0,"start":1,"end":5}`
	cases := []struct {
		name  string
		input string
		ok    bool
	}{
		{"empty input", "", true},
		{"single valid line", valid + "\n", true},
		{"truncated line", valid + "\n" + `{"job":"sort","phase":"map","task":1,"sta`, false},
		{"wrong field type", `{"job":"sort","phase":"map","task":0,"start":"abc","end":5}`, false},
		{"non-object event", `[1,2,3]`, false},
		{"bare scalar event", `"map"`, false},
		{"out-of-order timestamps", valid + "\n" + `{"job":"sort","phase":"map","task":1,"start":9,"end":2}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := ReadJSON(strings.NewReader(tc.input))
			if tc.ok {
				if err != nil {
					t.Fatalf("ReadJSON(%q): %v", tc.input, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("ReadJSON(%q) accepted malformed input (%d events)", tc.input, l.Len())
			}
		})
	}
}

// A malformed tail must not hand the caller a partially filled log: the
// error comes with a nil *Log, so there is no temptation to analyze a
// trace whose later phases silently vanished.
func TestReadJSONNoPartialLog(t *testing.T) {
	input := `{"job":"sort","phase":"map","task":0,"start":1,"end":5}` + "\n" + `{broken`
	l, err := ReadJSON(strings.NewReader(input))
	if err == nil {
		t.Fatal("malformed tail should error")
	}
	if l != nil {
		t.Fatalf("got partial log with %d events, want nil", l.Len())
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	l := buildSampleLog(t)
	evs := l.Events()
	evs[0].Job = "mutated"
	if l.Events()[0].Job == "mutated" {
		t.Error("Events must return a copy, not internal state")
	}
}

// Property: JSON round-trip preserves arbitrary well-formed event lists.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(starts []uint16, widths []uint16) bool {
		l := NewLog()
		n := len(starts)
		if len(widths) < n {
			n = len(widths)
		}
		for i := 0; i < n; i++ {
			s := float64(starts[i]) / 7
			e := Event{Job: "p", Stage: i % 3, Phase: PhaseMap, Task: i, Start: s, End: s + float64(widths[i])/13}
			if err := l.Add(e); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := l.WriteJSON(&buf); err != nil {
			return false
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.Events(), l.Events())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
