package netmr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestSpillFileCompressionRoundTrip: map-side spill sections at or above
// the wire compression threshold are stored LZ-compressed when that
// shrinks them; every section — compressed, raw-because-small, raw-
// because-incompressible, absent — must read back exactly.
func TestSpillFileCompressionRoundTrip(t *testing.T) {
	const R = 4
	rng := rand.New(rand.NewSource(7))
	compressible := map[string]float64{}
	for i := 0; i < 600; i++ {
		compressible[fmt.Sprintf("shared-prefix-key-%05d", i)] = float64(i % 5)
	}
	incompressible := map[string]float64{}
	for i := 0; i < 600; i++ {
		k := make([]byte, 24)
		for j := range k {
			k[j] = byte(rng.Intn(256))
		}
		incompressible[string(k)] = rng.Float64()
	}
	tiny := map[string]float64{"a": 1, "b": 2}
	parts := []partitionPartial{
		{ID: 0, Partial: sectionFromMap(compressible)},
		{ID: 1, Partial: sectionFromMap(incompressible)},
		{ID: 2, Partial: sectionFromMap(tiny)},
		// partition 3 absent: the task emitted nothing into it
	}
	sf, onDisk, saved, err := writeSpillFile(t.TempDir(), 0, parts, R)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.remove()
	if saved == 0 {
		t.Error("compressible section saved no bytes")
	}
	if !sf.secs[0].packed {
		t.Error("compressible section not stored compressed")
	}
	if sf.secs[2].packed {
		t.Error("tiny section paid the compressor below the threshold")
	}
	if onDisk <= 0 {
		t.Fatalf("on-disk size = %d", onDisk)
	}
	// SpilledBytes accounting is post-compression: the on-disk size plus
	// the saved bytes is what the sections serialize to raw, give or take
	// a count prefix dropped and a header added per block.
	var raw int64
	for _, part := range parts {
		raw += int64(len(part.Partial))
	}
	if slack := onDisk + saved - raw; slack < 0 || slack > 3*blockHeaderMax {
		t.Errorf("onDisk %d + saved %d is %d off the sections' %d raw bytes", onDisk, saved, slack, raw)
	}
	for _, want := range parts {
		got, err := sf.section(want.ID)
		if err != nil {
			t.Fatalf("section %d: %v", want.ID, err)
		}
		if got != want.Partial {
			t.Fatalf("section %d round trip diverged", want.ID)
		}
	}
	if sf.secs[1].packed {
		t.Error("incompressible section stored compressed")
	}
	if got, err := sf.section(3); err != nil || got != "" {
		t.Fatalf("absent section = (%q, %v), want the empty section", got, err)
	}
}

// TestSpillFolderCompressedRunsMatchMemory: the reduce-side gather
// buffer's block-framed compressed runs must fold to exactly the
// in-memory result, and highly redundant runs must record savings.
func TestSpillFolderCompressedRunsMatchMemory(t *testing.T) {
	job := wordCountJob()
	inputs := make([]taskMap, 8)
	for task := range inputs {
		m := map[string]float64{}
		for i := 0; i < 1000; i++ { // 25 KB a run: above lzCompressThreshold
			m[fmt.Sprintf("gather-key-%04d", i)] = float64(task + i%3)
		}
		inputs[task] = taskMap{task: task, m: m}
	}
	want := oracleFold(job, inputs)
	got, merged, f := folderFold(t, job, inputs, 1024, 0) // tight budget: every add spills
	if !merged {
		t.Fatal("tight budget never forced a merged fold")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compressed-run fold diverged from the in-memory reference")
	}
	if f.compSaved == 0 {
		t.Error("redundant runs recorded no compression savings")
	}
	if f.spilledBytes == 0 || f.spillRuns == 0 {
		t.Errorf("spill accounting empty: runs=%d bytes=%d", f.spillRuns, f.spilledBytes)
	}
}
