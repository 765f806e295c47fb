package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"ipso/internal/trace"
)

func TestStartSpanWithoutRecorderIsNoOp(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "map")
	if s != nil {
		t.Error("no recorder: span must be nil")
	}
	if ctx2 != ctx {
		t.Error("no recorder: context must be returned unchanged")
	}
	s.SetTask(3).SetStage(1)
	s.End() // all no-ops on nil
}

func TestSpanRecordingAndNesting(t *testing.T) {
	rec := NewRecorder("job")
	ctx := WithRecorder(context.Background(), rec)

	ctx, outer := StartSpan(ctx, "map")
	outer.SetStage(2).SetTask(5)
	_, inner := StartSpan(ctx, "compute")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	outer.End() // idempotent

	evs := rec.Log().Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Child inherited the parent's stage and task coordinates.
	if evs[0].Phase != "compute" || evs[0].Stage != 2 || evs[0].Task != 5 {
		t.Errorf("child event = %+v", evs[0])
	}
	if evs[1].Phase != "map" || evs[1].Job != "job" {
		t.Errorf("parent event = %+v", evs[1])
	}
	if evs[0].End < evs[0].Start || evs[0].Duration() <= 0 {
		t.Errorf("child duration not positive: %+v", evs[0])
	}
	if evs[1].End < evs[0].End {
		t.Errorf("parent must end after child: %+v vs %+v", evs[1], evs[0])
	}
}

func TestRecorderJSONIsTraceCompatible(t *testing.T) {
	rec := NewRecorder("selftest")
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 3; i++ {
		_, s := StartSpan(ctx, "map")
		s.SetTask(i)
		time.Sleep(200 * time.Microsecond)
		s.End()
	}
	_, m := StartSpan(ctx, "merge")
	m.End()

	var buf bytes.Buffer
	if err := rec.Log().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 4 {
		t.Fatalf("want 4 JSON lines, got %d:\n%s", got, buf.String())
	}

	// The whole point: trace.ReadJSON parses the span log and its
	// extraction tooling works on it.
	log, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("trace.ReadJSON on span output: %v", err)
	}
	if log.Len() != 4 {
		t.Fatalf("trace log has %d events, want 4", log.Len())
	}
	ds := log.TaskDurations(trace.PhaseMap)
	if len(ds) != 3 {
		t.Fatalf("task durations = %v, want 3 entries", ds)
	}
	for i, d := range ds {
		if d <= 0 {
			t.Errorf("task %d duration %g, want > 0", i, d)
		}
	}
	if total := log.PhaseTotal(trace.PhaseMap); total <= 0 {
		t.Errorf("PhaseTotal(map) = %g, want > 0", total)
	}
	if _, ok := log.MaxTaskDuration(trace.PhaseMap); !ok {
		t.Error("MaxTaskDuration should see the task events")
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	rec := NewRecorder("racy")
	ctx := WithRecorder(context.Background(), rec)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := StartSpan(ctx, "map")
			s.SetTask(i)
			s.End()
		}(i)
	}
	wg.Wait()
	if n := rec.Log().Len(); n != 16 {
		t.Errorf("recorded %d spans, want 16", n)
	}
}

func TestNilRecorderAccessors(t *testing.T) {
	var rec *Recorder
	if log := rec.Log(); len(log.Events()) != 0 || log.Len() != 0 {
		t.Error("nil recorder must read as empty")
	}
	if RecorderFrom(context.Background()) != nil {
		t.Error("bare context must carry no recorder")
	}
}
