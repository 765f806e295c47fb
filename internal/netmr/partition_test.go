package netmr

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ipso/internal/workload"
)

// TestPartitionIndex pins down the routing contract both sides of the
// wire depend on: deterministic, in range, degenerate at parts<=1.
func TestPartitionIndex(t *testing.T) {
	keys := []string{"", "a", "alpha", "beta", "πκλ", strings.Repeat("k", 300)}
	for _, k := range keys {
		if got := partitionIndex(k, 1); got != 0 {
			t.Errorf("partitionIndex(%q, 1) = %d, want 0", k, got)
		}
		if got := partitionIndex(k, 0); got != 0 {
			t.Errorf("partitionIndex(%q, 0) = %d, want 0", k, got)
		}
		if got := partitionIndex(k, -3); got != 0 {
			t.Errorf("partitionIndex(%q, -3) = %d, want 0", k, got)
		}
		for _, parts := range []int{2, 3, 7, 64} {
			got := partitionIndex(k, parts)
			if got < 0 || got >= parts {
				t.Fatalf("partitionIndex(%q, %d) = %d out of range", k, parts, got)
			}
			if again := partitionIndex(k, parts); again != got {
				t.Fatalf("partitionIndex(%q, %d) not deterministic: %d then %d", k, parts, got, again)
			}
		}
	}
}

// TestPartitionIndexGolden pins the hash itself. It is a protocol
// constant: a worker's partitioned output, the master's fallback split
// and Result.Lookup must agree across builds, and no version field covers
// it, so a change here is a wire break, not a refactor. The keys cover the
// empty key, every tail length, one and several whole words, keys that
// differ only by trailing zero bytes, and bytes with the top bit set.
func TestPartitionIndexGolden(t *testing.T) {
	for _, g := range []struct {
		key        string
		p2, p3, p8 int
	}{
		{"", 0, 0, 0},
		{"a", 1, 0, 5},
		{"a\x00", 0, 1, 6},
		{"ab", 1, 0, 7},
		{"abc", 0, 0, 4},
		{"abcd", 0, 2, 0},
		{"abcde", 1, 1, 5},
		{"abcdef", 0, 2, 0},
		{"abcdefg", 0, 1, 4},
		{"abcdefgh", 0, 1, 4},
		{"abcdefgh\x00", 0, 1, 2},
		{"abcdefghi", 0, 0, 0},
		{"abcdefghijklmnop", 1, 0, 1},
		{"the quick brown fox", 1, 2, 5},
		{"key-0", 1, 1, 5},
		{"key-1", 0, 2, 0},
		{"πκλ", 1, 0, 5},
		{"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7", 0, 0, 2},
		{strings.Repeat("k", 300), 1, 1, 1},
	} {
		if p2, p3, p8 := partitionIndex(g.key, 2), partitionIndex(g.key, 3), partitionIndex(g.key, 8); p2 != g.p2 || p3 != g.p3 || p8 != g.p8 {
			t.Errorf("partitionIndex(%q, {2, 3, 8}) = {%d, %d, %d}, pinned {%d, %d, %d}", g.key, p2, p3, p8, g.p2, g.p3, g.p8)
		}
	}
}

// TestPartitionIndexSpread: over the key shapes the workloads produce —
// TeraGen lines, numbered keys, and keys shorter than one hash word —
// every partition holds within ±10 % of its even share.
func TestPartitionIndexSpread(t *testing.T) {
	tera, err := workload.TeraGen(20_000, 14)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string][]string{}
	for i, r := range tera {
		sets["tera"] = append(sets["tera"], r.Key+r.Payload)
		sets["numbered"] = append(sets["numbered"], fmt.Sprintf("key-%d", i))
	}
	rng := rand.New(rand.NewSource(14))
	short := map[string]bool{}
	for len(short) < 20_000 {
		short[randomKey(rng, 1+rng.Intn(7))] = true
	}
	for k := range short {
		sets["short"] = append(sets["short"], k)
	}
	for name, keys := range sets {
		for _, parts := range []int{2, 3, 7, 8} {
			counts := make([]int, parts)
			for _, k := range keys {
				counts[partitionIndex(k, parts)]++
			}
			mean := float64(len(keys)) / float64(parts)
			for p, n := range counts {
				if dev := float64(n)/mean - 1; math.Abs(dev) > 0.10 {
					t.Errorf("%s keys over %d partitions: partition %d holds %d, %+.1f%% off the mean %.0f", name, parts, p, n, 100*dev, mean)
				}
			}
		}
	}
}

// TestRunShardPartitioned: the partitioned shard execution must be a
// pure re-arrangement of the flat one — same keys, same values, each key
// in exactly the partition partitionIndex assigns, empty partitions
// omitted.
func TestRunShardPartitioned(t *testing.T) {
	lines := testLines(t, 120)
	jobs := map[string]Job{"reduce": wordCountJob()}
	combined := wordCountJob()
	combined.Combine = func(acc, v float64) float64 { return acc + v }
	jobs["combine"] = combined

	for name, job := range jobs {
		t.Run(name, func(t *testing.T) {
			want := runShard(job, lines, new(shardScratch))
			for _, parts := range []int{1, 2, 4, 9} {
				got := runShardPartitioned(job, lines, new(shardScratch), parts, nil)
				flat := map[string]float64{}
				for _, p := range got {
					if p.ID < 0 || p.ID >= parts {
						t.Fatalf("parts=%d: partition id %d out of range", parts, p.ID)
					}
					if len(p.Partial) == 0 {
						t.Fatalf("parts=%d: empty partition %d shipped", parts, p.ID)
					}
					for k, v := range p.Partial.toMap() {
						if idx := partitionIndex(k, parts); idx != p.ID {
							t.Fatalf("parts=%d: key %q in partition %d, hashes to %d", parts, k, p.ID, idx)
						}
						flat[k] = v
					}
				}
				if !reflect.DeepEqual(flat, want) {
					t.Fatalf("parts=%d: partitioned union diverged from flat shard result", parts)
				}
			}
		})
	}
}

// runWordCount runs one wordcount job on a fresh cluster with the given
// master config and returns the result and stats.
func runWordCount(t *testing.T, cfg MasterConfig, workers int, lines []string, shards int) (map[string]float64, Stats) {
	t.Helper()
	master, err := NewMaster(mustRegistry(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	out, stats, err := master.Run(runCtx(t), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// TestResultsIdenticalAcrossPartitionConfigs: the reduce partition count
// R is a pure performance knob — the reduced output must be identical
// under every R, fewer, as many and more reducers than workers, and the
// GOMAXPROCS default.
func TestResultsIdenticalAcrossPartitionConfigs(t *testing.T) {
	lines := testLines(t, 500)
	want := runShard(wordCountJob(), lines, new(shardScratch))

	for name, R := range map[string]int{
		"partitions-1": 1, "partitions-2": 2, "partitions-3": 3, "partitions-4": 4, "partitions-8": 8, "default": 0,
	} {
		t.Run(name, func(t *testing.T) {
			cfg := MasterConfig{Reducers: R}
			got, stats := runWordCount(t, cfg, 2, lines, 12)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: result diverged from local reference", name)
			}
			if R == 0 {
				R = runtime.GOMAXPROCS(0)
			}
			if stats.Reducers != R || stats.ReduceTasks != R {
				t.Errorf("%s: Reducers = %d, ReduceTasks = %d, want %d", name, stats.Reducers, stats.ReduceTasks, R)
			}
		})
	}
}

// TestFlatResultToMapTaskFailsLaunch: a map task has one reply shape, a
// mapdone. A flat result frame in its place — even one whose Parts would
// pass validation — fails that worker's launch, and the job completes via
// reassignment to an honest worker.
func TestFlatResultToMapTaskFailsLaunch(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	rogueWorker(t, addr, "rogue", func(m message) (message, bool) {
		smuggled := sectionFromMap(map[string]float64{"smuggled": 1})
		id, attempt, isMap := firstShard(m)
		return message{Type: "result", TaskID: id, Attempt: attempt, Folded: smuggled,
			Parts: []partitionPartial{{ID: 0, Partial: smuggled}}}, isMap
	})
	honest, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := honest.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(honest.Stop)
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lines := testLines(t, 200)
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runShard(wordCountJob(), lines, new(shardScratch))) {
		t.Fatal("result diverged from reference with a flat-result worker in the pool")
	}
	for _, ws := range stats.PerWorker {
		if ws.ID == "rogue" && (ws.ShardsRun > 0 || ws.Reassignments == 0) {
			t.Errorf("flat-result worker: %+v, want no shard credited and its launch reassigned", ws)
		}
	}
}

// firstShard is the first shard a map task frame carries and whether m
// is one.
func firstShard(m message) (id, attempt int, ok bool) {
	if m.Type == "taskbatch" && len(m.Batch) > 0 {
		return m.Batch[0].TaskID, m.Batch[0].Attempt, true
	}
	return 0, 0, false
}

// TestMapdoneInlinePartsIgnored: the master holds no map output. A worker
// that answers its shards with mapdones carrying partition sets — ids in
// and outside [0, R) — stores nothing and leaves: the sets reach no
// reducer, the shards' outputs are lost, and the master runs those map
// tasks again on the honest worker, so the output is the reference's.
func TestMapdoneInlinePartsIgnored(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	smuggled := sectionFromMap(map[string]float64{"smuggled": 1})
	rogueServe(t, addr, "rogue", func(_ *Worker, c *conn, m message) (bool, bool) {
		if m.Type != "taskbatch" {
			return false, true
		}
		dones := make([]message, len(m.Batch))
		for i, spec := range m.Batch {
			dones[i] = message{Type: "mapdone", TaskID: spec.TaskID, Attempt: spec.Attempt, Run: m.Run,
				Parts: []partitionPartial{{ID: 0, Partial: smuggled}, {ID: 4, Partial: smuggled}}}
		}
		_ = c.sendFrames(dones, 5*time.Second)
		_ = c.close()
		return true, false
	})
	honest, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := honest.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(honest.Stop)
	waitIdle(t, master, 2) // so the rogue is drawn for some of the six shards
	reexecs := master.metrics.mapReexecs.Value()
	lines := testLines(t, 200)
	got, _, err := master.Run(runCtx(t), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runShard(wordCountJob(), lines, new(shardScratch))) {
		t.Fatal("result diverged from reference with a worker smuggling partition sets on its mapdones")
	}
	if master.metrics.mapReexecs.Value() == reexecs {
		t.Error("netmr_map_reexecutions_total did not rise: the rogue's shards were never run again")
	}
}
