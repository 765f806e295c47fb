package experiment

import (
	"context"
	"testing"
)

// TestDistReduceShrinksSerialFit is the acceptance check for the
// distributed reduce phase: refitting ε(n)=α·n^δ on the master's serial
// work must come out strictly smaller when RunResult keeps the R
// sections than when Run unions them into one map.
func TestDistReduceShrinksSerialFit(t *testing.T) {
	grid := []int{1, 2, 4}
	points, offFit, onFit, err := distReduceMeasure(context.Background(), grid, 4000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(grid) {
		t.Fatalf("measured %d points, want %d", len(points), len(grid))
	}
	for _, p := range points {
		if p.reduceRuns != 4 {
			t.Errorf("n=%d: %d reduce tasks ran on workers, want 4", p.n, p.reduceRuns)
		}
		if p.residueMs >= p.serialMs {
			t.Errorf("n=%d: RunResult's merge %.3f ms not smaller than Run's union %.3f ms",
				p.n, p.residueMs, p.serialMs)
		}
	}
	maxN := float64(grid[len(grid)-1])
	if on, off := onFit.Eval(maxN), offFit.Eval(maxN); on >= off {
		t.Errorf("fitted ε at n=%.0f: %.3f ms for RunResult, %.3f ms for Run — want strictly smaller", maxN, on, off)
	}
}

func TestDistReduceReport(t *testing.T) {
	rep, err := DistReduce(context.Background(), []int{1, 2}, 2000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 2 {
		t.Fatalf("unexpected report shape %+v", rep.Tables)
	}
	for _, name := range []string{"distreduce/serial-ms", "distreduce/residue-ms"} {
		s := seriesByName(t, rep, name)
		for _, v := range s.Y {
			if v <= 0 {
				t.Errorf("%s has nonpositive sample %g", name, v)
			}
		}
	}
	if len(rep.Notes) != 3 {
		t.Errorf("expected two ε(n) fit notes plus the comparison, got %v", rep.Notes)
	}
}

func TestDistReduceValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := DistReduce(ctx, []int{1}, 10, 2, 2); err == nil {
		t.Error("single-point grid should error (fit needs >=2 points)")
	}
	if _, err := DistReduce(ctx, []int{1, 2}, 0, 2, 2); err == nil {
		t.Error("zero lines should error")
	}
	if _, err := DistReduce(ctx, []int{1, 2}, 10, 2, 0); err == nil {
		t.Error("zero reducers should error")
	}
	if _, err := DistReduce(ctx, []int{1, 0}, 10, 2, 2); err == nil {
		t.Error("invalid worker count should error")
	}
}
