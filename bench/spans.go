package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one interval the harness recorded around a call into a layer's
// public API. Spans of one benchmark run share the run identifier; parent
// is the id of the span that caused this one (0 for the root).
type span struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"` // seconds since the recorder's epoch
	End    float64 `json:"end"`
}

// recorder keeps spans in memory until the run ends. Only the client
// goroutine records, so it needs no lock.
type recorder struct {
	run   string
	epoch time.Time
	spans []span
	stack []int // ids of the open spans, innermost last
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

// begin opens a span under the innermost open one and returns the
// function that closes it; the closer returns the span's duration in
// seconds, which is how every harness timing is taken.
func (r *recorder) begin(name string) func() float64 {
	parent := 0
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans) + 1
	start := time.Now()
	r.spans = append(r.spans, span{Run: r.run, ID: id, Parent: parent, Name: name, Start: start.Sub(r.epoch).Seconds()})
	r.stack = append(r.stack, id)
	return func() float64 {
		end := time.Now()
		r.spans[id-1].End = end.Sub(r.epoch).Seconds()
		r.stack = r.stack[:len(r.stack)-1]
		return end.Sub(start).Seconds()
	}
}

// writeFile dumps the spans as JSON Lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
