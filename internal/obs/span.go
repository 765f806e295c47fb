package obs

import (
	"context"
	"sync"
	"time"

	"ipso/internal/trace"
)

// Recorder collects finished spans for one job execution as trace
// events, so recorded span logs feed the same extraction tooling
// (PhaseTotal, MaxTaskDuration, ...) the harness applies to simulated
// engine logs; Start and End are seconds since the recorder's epoch. It
// is safe for concurrent use; a nil *Recorder is a valid no-op sink,
// which is what code paths see when the context carries no recorder.
type Recorder struct {
	job   string
	epoch time.Time

	mu     sync.Mutex
	events []trace.Event
}

// NewRecorder starts an empty span log for the named job; span
// timestamps are measured from this call.
func NewRecorder(job string) *Recorder {
	return &Recorder{job: job, epoch: time.Now()}
}

// Log returns the finished spans so far, in end order; empty for a nil
// recorder.
func (r *Recorder) Log() *trace.Log {
	if r == nil {
		return trace.NewLog()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return trace.NewLog(r.events...)
}

type recorderKey struct{}

type spanKey struct{}

// WithRecorder returns a context carrying the recorder; StartSpan calls
// below it record into rec. A nil rec disables recording.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFrom returns the context's recorder, or nil when absent.
func RecorderFrom(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}

// Span is one in-flight wall-clock interval. A nil *Span (returned when
// the context has no recorder) accepts every method as a no-op, so
// instrumentation sites need no conditionals.
type Span struct {
	rec   *Recorder
	phase string
	stage int
	task  int
	start time.Time
	once  sync.Once
}

// StartSpan begins a span named phase (use the trace.Phase vocabulary —
// "map", "merge", ... — where it applies, so trace tooling can filter).
// The returned context carries the span: children started from it
// inherit its stage and task as defaults, giving nested spans a common
// coordinate without explicit plumbing. When ctx carries no recorder the
// original context and a nil span are returned and nothing is recorded.
func StartSpan(ctx context.Context, phase string) (context.Context, *Span) {
	rec := RecorderFrom(ctx)
	if rec == nil {
		return ctx, nil
	}
	s := &Span{rec: rec, phase: phase, task: -1, start: time.Now()}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		s.stage = parent.stage
		s.task = parent.task
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetStage tags the span (and, through inheritance, its children) with a
// stage index.
func (s *Span) SetStage(stage int) *Span {
	if s != nil {
		s.stage = stage
	}
	return s
}

// SetTask tags the span as a task-level event (trace tooling treats
// Task >= 0 as per-task measurements).
func (s *Span) SetTask(task int) *Span {
	if s != nil {
		s.task = task
	}
	return s
}

// End finishes the span and records it. End is idempotent; only the
// first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		end := time.Now()
		e := trace.Event{
			Job:   s.rec.job,
			Stage: s.stage,
			Phase: trace.Phase(s.phase),
			Task:  s.task,
			Start: s.start.Sub(s.rec.epoch).Seconds(),
			End:   end.Sub(s.rec.epoch).Seconds(),
		}
		s.rec.mu.Lock()
		s.rec.events = append(s.rec.events, e)
		s.rec.mu.Unlock()
	})
}
