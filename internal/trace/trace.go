// Package trace records and analyzes execution event logs.
//
// Section V of the paper derives every scaling factor from log files: "We
// then extract the execution latencies for all stages from the
// application's Log file ... by tracing the timestamps for each stage in
// the Spark Log files, which are available in the JSON format." This
// package is that methodology: simulated engines append timestamped phase
// and task events; the experiment harness extracts phase durations, task
// maxima, and per-stage latencies from the log rather than peeking at
// engine internals.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// Phase identifies an execution phase. The MapReduce phases follow the
// paper's four-part job breakdown — (a) init+scheduling, (b) map,
// (c) map→reduce communication, (d) reduce (shuffle/merge/reduce) — and
// the Spark engine adds broadcast and generic stage-compute phases.
type Phase string

// Phases emitted by the simulated engines.
const (
	PhaseInit      Phase = "init"      // execution environment initialization
	PhaseSchedule  Phase = "schedule"  // centralized task dispatch
	PhaseMap       Phase = "map"       // split-phase parallel task work
	PhaseShuffle   Phase = "shuffle"   // reducer pulling map outputs
	PhaseMerge     Phase = "merge"     // serial intermediate merging
	PhaseReduce    Phase = "reduce"    // final serial reduce
	PhaseSpill     Phase = "spill"     // disk I/O from memory overflow
	PhaseBroadcast Phase = "broadcast" // master → workers data broadcast
	PhaseCompute   Phase = "compute"   // Spark stage task compute
	PhaseDeser     Phase = "deser"     // task scheduling+deserialization overhead
)

// Event is one timestamped interval in a job execution: a simulated
// engine's phase or task, a recorded in-process span, or a span of a
// distributed run's job trace. The last four fields identify a
// distributed run's launches; they are empty elsewhere and then absent
// from the JSON.
type Event struct {
	Job   string  `json:"job"`
	Stage int     `json:"stage"` // 0 for single-stage jobs; a launch's attempt
	Phase Phase   `json:"phase"`
	Task  int     `json:"task"` // -1 for phase-level events; a launch's shard or partition
	Start float64 `json:"start"`
	End   float64 `json:"end"`

	Launch  int    `json:"launch,omitempty"`  // launch ordinal; -1 for a master phase
	Worker  string `json:"worker,omitempty"`  // the worker that ran the launch
	Outcome string `json:"outcome,omitempty"` // a launch span's outcome
	Trace   string `json:"trace,omitempty"`   // the job trace's ID
}

// Duration returns End − Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// Log is an append-only event log for one job execution.
type Log struct {
	events []Event
}

// NewLog returns a log holding a copy of events, which the caller
// vouches end no earlier than they start (Add and ReadJSON check it).
func NewLog(events ...Event) *Log { return &Log{events: slices.Clone(events)} }

// Add appends an event. Events with End < Start are rejected.
func (l *Log) Add(e Event) error {
	if e.End < e.Start {
		return fmt.Errorf("trace: event ends before it starts: %+v", e)
	}
	l.events = append(l.events, e)
	return nil
}

// Events returns a copy of all recorded events.
func (l *Log) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// WriteJSON writes the log as JSON Lines (one event object per line), the
// same shape as Spark's event log files.
func (l *Log) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l.events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: encode event: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSON parses a JSON Lines event log.
func ReadJSON(r io.Reader) (*Log, error) {
	l := NewLog()
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode event: %w", err)
		}
		if err := l.Add(e); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// filter returns events matching phase across all stages (stage < 0) or
// one stage.
func (l *Log) filter(phase Phase, stage int) []Event {
	var out []Event
	for _, e := range l.events {
		if e.Phase == phase && (stage < 0 || e.Stage == stage) {
			out = append(out, e)
		}
	}
	return out
}

// PhaseSpan returns the wall-clock span [min start, max end] covered by
// events of the given phase (all stages), and ok=false if none exist.
func (l *Log) PhaseSpan(phase Phase) (start, end float64, ok bool) {
	evs := l.filter(phase, -1)
	if len(evs) == 0 {
		return 0, 0, false
	}
	start, end = evs[0].Start, evs[0].End
	for _, e := range evs[1:] {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return start, end, true
}

// PhaseTotal returns the summed duration of all events in the phase (all
// stages). For parallel tasks this is total work, not wall-clock time.
func (l *Log) PhaseTotal(phase Phase) float64 {
	total := 0.0
	for _, e := range l.filter(phase, -1) {
		total += e.Duration()
	}
	return total
}

// TaskDurations returns the durations of task-level events (Task >= 0) of
// the phase, ordered by task index.
func (l *Log) TaskDurations(phase Phase) []float64 {
	evs := l.filter(phase, -1)
	var tasks []Event
	for _, e := range evs {
		if e.Task >= 0 {
			tasks = append(tasks, e)
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Task < tasks[j].Task })
	out := make([]float64, 0, len(tasks))
	for _, e := range tasks {
		out = append(out, e.Duration())
	}
	return out
}

// MaxTaskDuration returns the slowest task duration in the phase — the
// E[max{Tp,i(n)}] measurement for one run — and ok=false if there are no
// task events.
func (l *Log) MaxTaskDuration(phase Phase) (float64, bool) {
	ds := l.TaskDurations(phase)
	if len(ds) == 0 {
		return 0, false
	}
	mx := ds[0]
	for _, d := range ds[1:] {
		if d > mx {
			mx = d
		}
	}
	return mx, true
}

// Stages returns the distinct stage indices present in the log, ascending.
func (l *Log) Stages() []int {
	seen := make(map[int]bool)
	for _, e := range l.events {
		seen[e.Stage] = true
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// StageSpan returns the wall-clock span of one stage across all phases.
func (l *Log) StageSpan(stage int) (start, end float64, ok bool) {
	first := true
	for _, e := range l.events {
		if e.Stage != stage {
			continue
		}
		if first {
			start, end, first = e.Start, e.End, false
			continue
		}
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return start, end, !first
}

// MakeSpan returns the span of the whole log (all events).
func (l *Log) MakeSpan() (start, end float64, ok bool) {
	if len(l.events) == 0 {
		return 0, 0, false
	}
	start, end = l.events[0].Start, l.events[0].End
	for _, e := range l.events[1:] {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return start, end, true
}
