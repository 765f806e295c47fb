package experiment

import (
	"context"
	"testing"
)

// TestPipeShuffleReport: the pipelined-shuffle study must produce one
// table row per operating point, the q(n) series, and the fit note plus
// the invariant note.
func TestPipeShuffleReport(t *testing.T) {
	rep, err := PipeShuffle(context.Background(), []int{1, 2}, 2000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 2 {
		t.Fatalf("unexpected report shape %+v", rep.Tables)
	}
	for _, row := range rep.Tables[0].Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("row %v not marked byte-identical", row)
		}
	}
	s := seriesByName(t, rep, "pipeshuffle/q")
	if len(s.X) != 2 {
		t.Errorf("pipeshuffle/q has %d samples, want 2", len(s.X))
	}
	for _, v := range s.Y {
		if v <= 0 {
			t.Errorf("pipeshuffle/q has nonpositive sample %g", v)
		}
	}
	if len(rep.Notes) != 2 {
		t.Errorf("expected the q(n) fit note and the invariant note, got %v", rep.Notes)
	}
}

func TestPipeShuffleValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := PipeShuffle(ctx, []int{1}, 10, 2, 2); err == nil {
		t.Error("single-point grid should error (fit needs >=2 points)")
	}
	if _, err := PipeShuffle(ctx, []int{1, 2}, 0, 2, 2); err == nil {
		t.Error("zero lines should error")
	}
	if _, err := PipeShuffle(ctx, []int{1, 2}, 10, 2, 0); err == nil {
		t.Error("zero reducers should error")
	}
	if _, err := PipeShuffle(ctx, []int{1, 0}, 10, 2, 2); err == nil {
		t.Error("invalid worker count should error")
	}
}
