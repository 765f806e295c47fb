package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadJSON exercises the event-log parser against arbitrary input:
// it must never panic, and anything it accepts must round-trip.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"job":"sort","stage":0,"phase":"map","task":1,"start":0,"end":2}`)
	f.Add(`{"start":5,"end":1}`)
	f.Add(`{"phase":"merge"}` + "\n" + `{"phase":"reduce","start":1,"end":3}`)
	// A distributed run's job trace dump: a launch and a master phase.
	f.Add(`{"job":"wc","stage":1,"phase":"task","task":3,"start":0.5,"end":1.5,"launch":4,"worker":"w1","outcome":"ok","trace":"wc-1"}` + "\n" +
		`{"job":"wc","stage":0,"phase":"split","task":-1,"start":0,"end":2,"launch":-1,"trace":"wc-1"}`)
	f.Add(`not json at all`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, input string) {
		log, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := log.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted log failed to serialize: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("serialized log failed to parse: %v", err)
		}
		if !reflect.DeepEqual(back.Events(), log.Events()) {
			t.Fatal("round-trip changed the events")
		}
	})
}
