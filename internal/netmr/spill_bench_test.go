package netmr

import (
	"math/rand"
	"testing"
)

// spillBenchInputs builds one reduce partition's gathered inputs: tasks
// map-task sections over a shared key space, so every key folds tasks
// values, with random keys (tera-spill's shape, the one workload of the
// ledger that pays the out-of-core tax): a reducer whose store spilled
// them streams them.
func spillBenchInputs(tasks, keys int) []partitionPartial {
	rng := rand.New(rand.NewSource(16))
	space := make([]string, keys)
	for k := range space {
		space[k] = randomKey(rng, 24)
	}
	inputs := make([]partitionPartial, tasks)
	for task := range inputs {
		m := make(map[string]float64, keys)
		for k, key := range space {
			m[key] = rng.Float64() + float64(task+k)
		}
		inputs[task] = partitionPartial{ID: task, Partial: sectionFromMap(m)}
	}
	return inputs
}

// benchmarkShuffleFold drives the reduce-side gather+fold at one budget;
// 0 is the all-in-memory reference the out-of-core paths are gated
// against. With local set the inputs sit in the reducer's own interStore
// under the same budget, as on a two-worker cluster, and the gather is
// the store's slice.
func benchmarkShuffleFold(b *testing.B, budget int64, local bool) {
	job := benchJob(true)
	inputs := spillBenchInputs(16, 4000)
	dir := b.TempDir()
	store := newInterStore()
	store.configure(budget, dir)
	defer store.evictAll()
	var tasks []int
	if local {
		for _, in := range inputs {
			tasks = append(tasks, in.ID)
			if _, _, err := store.put("bench", in.ID, []partitionPartial{{ID: 0, Partial: in.Partial}}, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(sectionBytes(inputs))
	b.ResetTimer()
	var out foldOut
	for i := 0; i < b.N; i++ {
		f := newSpillFolder(budget, dir, "bench")
		gathered, streams := inputs, []*mergeSource(nil)
		if local {
			var err error
			if gathered, streams, err = store.slice("bench", 0, tasks, true); err != nil {
				b.Fatal(err)
			}
		}
		for _, in := range gathered {
			f.add(in.ID, in.Partial)
		}
		for _, src := range streams {
			f.stream(src)
		}
		merged, err := f.fold(job, &out)
		if err != nil {
			b.Fatal(err)
		}
		if budget > 0 && merged == local {
			b.Fatalf("merged through runs: %v; want the gathered bytes spilled to runs, the store's streamed", merged)
		}
		if out.b.count != 4000 {
			b.Fatalf("fold produced %d keys, want 4000", out.b.count)
		}
	}
}

// BenchmarkShuffleSpill quantifies the out-of-core tax: mem is the
// unconstrained fold, spill the same inputs arriving as bytes (fetched)
// and forced through sorted runs and the loser-tree merge, local the same
// inputs streamed from the reducer's own spilled store, the path
// tera-spill runs. CI gates local against mem.
func BenchmarkShuffleSpill(b *testing.B) {
	b.Run("mem", func(b *testing.B) { benchmarkShuffleFold(b, 0, false) })
	b.Run("spill", func(b *testing.B) { benchmarkShuffleFold(b, 64<<10, false) })
	b.Run("local", func(b *testing.B) { benchmarkShuffleFold(b, 64<<10, true) })
}
