package runner

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ipso/internal/obs"
	"ipso/internal/trace"
)

func TestMapCountsTaskOutcomes(t *testing.T) {
	started0 := tasksStarted.Value()
	completed0 := tasksCompleted.Value()
	panicked0 := tasksPanicked.Value()
	failed0 := tasksFailed.Value()

	ctx := WithWorkers(context.Background(), 1)
	if _, err := Map(ctx, 5, func(ctx context.Context, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if d := tasksStarted.Value() - started0; d != 5 {
		t.Errorf("started delta = %g, want 5", d)
	}
	if d := tasksCompleted.Value() - completed0; d != 5 {
		t.Errorf("completed delta = %g, want 5", d)
	}

	if _, err := Map(ctx, 1, func(ctx context.Context, i int) (int, error) {
		panic("boom")
	}); err == nil {
		t.Fatal("panic should surface as error")
	}
	if d := tasksPanicked.Value() - panicked0; d != 1 {
		t.Errorf("panicked delta = %g, want 1", d)
	}

	wantErr := errors.New("nope")
	if _, err := Map(ctx, 1, func(ctx context.Context, i int) (int, error) {
		return 0, wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if d := tasksFailed.Value() - failed0; d != 1 {
		t.Errorf("failed delta = %g, want 1", d)
	}

	if n := queueWait.Count(); n == 0 {
		t.Error("queue-wait histogram never observed")
	}
	if n := taskSeconds.Count(); n == 0 {
		t.Error("task-duration histogram never observed")
	}
	if v := liveWorkers.Value(); v != 0 {
		t.Errorf("live workers = %g after all pools drained, want 0", v)
	}
}

func TestMapRecordsTaskSpans(t *testing.T) {
	rec := obs.NewRecorder("pool")
	ctx := obs.WithRecorder(WithWorkers(context.Background(), 4), rec)
	const n = 8
	if _, err := Map(ctx, n, func(ctx context.Context, i int) (int, error) {
		return i * i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Log().Len(); got != n {
		t.Fatalf("recorded %d spans, want %d", got, n)
	}

	// The span log round-trips through the trace tooling: n task events
	// in the "map" phase, one per task index.
	var buf bytes.Buffer
	if err := rec.Log().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	log, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ds := log.TaskDurations(trace.PhaseMap)
	if len(ds) != n {
		t.Fatalf("task durations = %d, want %d", len(ds), n)
	}
}

func TestMapWithoutRecorderRecordsNothing(t *testing.T) {
	ctx := WithWorkers(context.Background(), 2)
	if _, err := Map(ctx, 3, func(ctx context.Context, i int) (int, error) {
		if obs.RecorderFrom(ctx) != nil {
			t.Error("task context should carry no recorder")
		}
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}
