package netmr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipso/internal/chaos"
)

// combineSumJob is wordcount with a Combine: the streaming fold path,
// which the spill merge must reproduce exactly too.
func combineSumJob() Job {
	j := wordCountJob()
	j.Combine = func(a, b float64) float64 { return a + b }
	return j
}

// taskMap is one map task's slice of a reduce partition in the form the
// oracle folds: a map.
type taskMap struct {
	task int
	m    map[string]float64
}

// randomTaskPartials builds one reduce partition's gathered inputs under
// a chosen key distribution: tasks map-task ids with skewed, uniform or
// degenerate key spaces, values small integers so float folds stay exact.
func randomTaskPartials(rng *rand.Rand, tasks, keys int, dist string) []taskMap {
	inputs := make([]taskMap, 0, tasks)
	for task := 0; task < tasks; task++ {
		m := map[string]float64{}
		n := 1 + rng.Intn(keys)
		for i := 0; i < n; i++ {
			var k string
			switch dist {
			case "skewed": // zipf-ish: low key ids dominate
				k = fmt.Sprintf("key-%d", rng.Intn(1+rng.Intn(keys)))
			case "disjoint": // every task its own key space
				k = fmt.Sprintf("task%d-key-%d", task, i)
			case "same": // every task hits one hot key
				k = "hot"
			default: // uniform
				k = fmt.Sprintf("key-%d", rng.Intn(keys))
			}
			m[k] = float64(1 + rng.Intn(5))
		}
		inputs = append(inputs, taskMap{task: task, m: m})
	}
	return inputs
}

// oracleFold is the reference the section merge must reproduce: the
// serialMerge oracle over the inputs' maps in ascending map-task order.
func oracleFold(job Job, inputs []taskMap) map[string]float64 {
	ref := append([]taskMap(nil), inputs...)
	sort.Slice(ref, func(i, j int) bool { return ref[i].task < ref[j].task })
	maps := make([]map[string]float64, len(ref))
	for i, in := range ref {
		maps[i] = in.m
	}
	return serialMerge(job, maps)
}

// folderFold pushes inputs, in the order given, through a spillFolder
// under budget and decodes the merged section. Every streamEvery-th input
// (none at 0) takes the tera-spill route instead: spilled by an interStore
// and handed to the folder as a stream over the store's file.
func folderFold(t testing.TB, job Job, inputs []taskMap, budget int64, streamEvery int) (map[string]float64, bool, *spillFolder) {
	t.Helper()
	f := newSpillFolder(budget, t.TempDir(), "fold#1")
	store := newInterStore()
	store.configure(1, t.TempDir())
	defer store.evictAll()
	for i, in := range inputs {
		sec := sectionFromMap(in.m)
		if streamEvery == 0 || i%streamEvery != 0 {
			f.add(in.task, sec)
			continue
		}
		if _, _, err := store.put("fold#1", in.task, []partitionPartial{{ID: 0, Partial: sec}}, 1); err != nil {
			t.Fatal(err)
		}
		parts, streams, err := store.slice("fold#1", 0, []int{in.task}, true)
		if want := min(len(sec), 1); err != nil || len(streams) != want || len(parts) != 1-want {
			t.Fatalf("task %d: slice gave %d sections, %d streams, err %v; want one stream, or the empty section", in.task, len(parts), len(streams), err)
		}
		for _, src := range streams {
			f.stream(src)
		}
	}
	var out foldOut
	merged, err := f.fold(job, &out)
	if err != nil {
		t.Fatalf("budget=%d: fold: %v", budget, err)
	}
	got := out.b.section().toMap()
	if got == nil {
		got = map[string]float64{}
	}
	return got, merged, f
}

// TestSpillFoldMatchesInMemory is the spill property test: for every
// budget — including budgets so tight every add flushes a run — the
// loser-tree merge of held sections, spilled runs and sections streamed
// from a store's spill files must produce exactly the fold the
// serialMerge oracle produces, across key distributions and both fold
// paths (Combine and group-then-Reduce).
func TestSpillFoldMatchesInMemory(t *testing.T) {
	jobs := map[string]Job{"reduce": wordCountJob(), "combine": combineSumJob()}
	budgets := []int64{0, 1, 64, 256, 2048, 1 << 20}
	for _, dist := range []string{"uniform", "skewed", "disjoint", "same"} {
		for jobName, job := range jobs {
			rng := rand.New(rand.NewSource(int64(len(dist)) * 31))
			for trial := 0; trial < 3; trial++ {
				inputs := randomTaskPartials(rng, 2+rng.Intn(12), 1+rng.Intn(40), dist)
				want := oracleFold(job, inputs)
				rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
				for _, budget := range budgets {
					for _, streamEvery := range []int{0, 2, 1} {
						got, merged, f := folderFold(t, job, inputs, budget, streamEvery)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s budget=%d stream=%d (merged=%v): fold diverged from the serialMerge oracle", dist, jobName, budget, streamEvery, merged)
						}
						if budget == 1 && streamEvery != 1 && (!merged || f.spillRuns == 0) {
							t.Fatalf("%s/%s: 1-byte budget never spilled", dist, jobName)
						}
						if (budget == 0 || streamEvery == 1) && merged {
							t.Fatalf("%s/%s budget=%d stream=%d: a fold that held nothing over budget spilled", dist, jobName, budget, streamEvery)
						}
					}
				}
			}
		}
	}
}

// TestSpillFileRoundTrip: every section of a spill file — one that spans
// several blocks, a tiny one, an absent one — reads back exactly, and the
// bytes that hit disk are the records plus one header a block.
func TestSpillFileRoundTrip(t *testing.T) {
	const R = 4
	rng := rand.New(rand.NewSource(7))
	big := map[string]float64{}
	for len(big) < 3000 { // ≈ 99 KB: two blocks
		big[randomKey(rng, 24)] = rng.Float64()
	}
	parts := []partitionPartial{
		{ID: 0, Partial: sectionFromMap(big)},
		{ID: 2, Partial: sectionFromMap(map[string]float64{"a": 1, "b": 2})},
		// partitions 1 and 3 absent: the task emitted nothing into them
	}
	sf, onDisk, err := writeSpillFile(t.TempDir(), 0, parts, R)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.remove()
	var raw, blocks int64
	for _, part := range parts {
		raw += int64(len(part.Partial))
		for r := sf.blocks(part.ID); r.off < r.end; blocks++ {
			if _, err := r.next(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if blocks != 3 {
		t.Fatalf("%d blocks, want two for the big section and one for the tiny one", blocks)
	}
	// Each section leaves its count prefix in the index and gains a header
	// a block.
	if slack := onDisk - raw; slack <= 0 || slack > blocks*int64(blockHeaderMax) {
		t.Errorf("%d bytes on disk for %d bytes of sections in %d blocks", onDisk, raw, blocks)
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
	for _, p := range []int{1, 3} {
		if got, err := sf.section(p); err != nil || got != "" || sf.blocks(p) != nil {
			t.Fatalf("absent section %d = (%q, %v), want the empty section and no blocks", p, got, err)
		}
	}
}

// TestInterStoreSpillMatchesMemory: the map-side store must serve the
// identical partition slices whether a task's set is resident or read
// back from its spill file, at every budget.
func TestInterStoreSpillMatchesMemory(t *testing.T) {
	const R, tasks = 3, 6
	rng := rand.New(rand.NewSource(11))
	sets := make([][]partitionPartial, tasks)
	for task := range sets {
		parts := make([]partitionPartial, 0, R)
		for p := 0; p < R; p++ {
			m := map[string]float64{}
			for i := 0; i < 1+rng.Intn(30); i++ {
				m[fmt.Sprintf("k%d-%d", p, rng.Intn(20))] = float64(rng.Intn(9))
			}
			parts = append(parts, partitionPartial{ID: p, Partial: sectionFromMap(m)})
		}
		sets[task] = parts
	}
	reference := newInterStore()
	for task, parts := range sets {
		if _, _, err := reference.put("wc#1", task, parts, R); err != nil {
			t.Fatal(err)
		}
	}
	allTasks := make([]int, tasks)
	for i := range allTasks {
		allTasks[i] = i
	}
	for _, budget := range []int64{1, 200, 4096, 1 << 20} {
		s := newInterStore()
		s.configure(budget, t.TempDir())
		var spilled int64
		for task, parts := range sets {
			_, n, err := s.put("wc#1", task, parts, R)
			if err != nil {
				t.Fatalf("budget=%d: put: %v", budget, err)
			}
			spilled += n
		}
		for p := 0; p < R; p++ {
			want, _, err := reference.slice("wc#1", p, allTasks, false)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := s.slice("wc#1", p, allTasks, false)
			if err != nil {
				t.Fatalf("budget=%d: slice(%d): %v", budget, p, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("budget=%d: partition %d slice diverged from resident reference", budget, p)
			}
		}
		peak, totalSpilled, runs := s.stats()
		if peak > budget {
			t.Errorf("budget=%d: peak resident bytes %d exceed the budget", budget, peak)
		}
		if budget == 1 && (runs == 0 || totalSpilled == 0 || totalSpilled != spilled) {
			t.Errorf("budget=1: spill accounting runs=%d spilled=%d (put-reported %d)", runs, totalSpilled, spilled)
		}
	}
}

// TestSliceReadsOutsideTheLock: slice reads spill files with the store
// unlocked, so puts that replace the tasks it is reading run beside it.
// Whatever the interleaving, a slice answers with exactly the sections
// stored or with a refusal (the file was closed under it), never with
// other bytes.
func TestSliceReadsOutsideTheLock(t *testing.T) {
	const R, tasks = 2, 4
	sets := localitySets(R)
	s := newInterStore()
	s.configure(1, t.TempDir())
	defer s.evictAll()
	put := func(task int) {
		if _, _, err := s.put("wc#1", task, sets[task], R); err != nil {
			t.Error(err)
		}
	}
	for task := 0; task < tasks; task++ {
		put(task)
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	var served, refused atomic.Int64
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(p int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				parts, _, err := s.slice("wc#1", p, []int{0, 1, 2, 3}, false)
				if err != nil {
					refused.Add(1)
					continue
				}
				served.Add(1)
				for _, part := range parts {
					if part.Partial != sets[part.ID][p].Partial {
						t.Errorf("task %d partition %d: slice answered with bytes that are not the section", part.ID, p)
					}
				}
			}
		}(g % R)
	}
	for i := 0; i < 200; i++ {
		put(i % tasks)
	}
	close(stop)
	readers.Wait()
	if served.Load() == 0 {
		t.Errorf("no slice was served (%d refused)", refused.Load())
	}
}

// TestEvictedRunReducersReset is the cross-run eviction regression: a
// new run must adopt its own reducer count, so a stale fetch against the
// evicted run — even one whose partition id was valid under the old
// count — gets an error frame, not a serve from a confused table.
func TestEvictedRunReducersReset(t *testing.T) {
	w, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := w.startFetchListener()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)

	parts4 := []partitionPartial{
		{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1})},
		{ID: 3, Partial: sectionFromMap(map[string]float64{"d": 4})},
	}
	if _, _, err := w.store.put("wc#1", 0, parts4, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fetchPartition(addr, "wc#1", 3, []int{0}); err != nil {
		t.Fatalf("partition 3 under the 4-reducer run refused: %v", err)
	}
	// New run with a smaller reducer count evicts the old one wholesale.
	if _, _, err := w.store.put("wc#2", 0, []partitionPartial{{ID: 0, Partial: sectionFromMap(map[string]float64{"z": 1})}}, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fetchPartition(addr, "wc#1", 0, []int{0}); err == nil {
		t.Error("stale fetch against the evicted run served")
	}
	if _, _, err := fetchPartition(addr, "wc#2", 3, []int{0}); err == nil {
		t.Error("partition valid only under the evicted run's count served")
	}
	if _, _, err := fetchPartition(addr, "wc#2", 1, []int{0}); err != nil {
		t.Errorf("valid fetch against the new run refused: %v", err)
	}
}

// TestStragglerCannotEvictNextRun: a straggling launch of a finished run
// must not evict a run after it. Once runs k−1 and k are released, or
// each evicted by the next run's first put, a late put into the worker's
// own store and a late replicate from a peer are refused for both, k−1
// landing during k+1 included, and k+1's output is still served. A new
// helloack forgets the runs left: a new master's run ids may repeat the
// last one's.
func TestStragglerCannotEvictNextRun(t *testing.T) {
	set := func(key string) []partitionPartial {
		return []partitionPartial{{ID: 0, Partial: sectionFromMap(map[string]float64{key: 1})}}
	}
	for _, released := range []bool{true, false} {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		addr, err := w.startFetchListener()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		w.store.setReducers(2)
		for _, run := range []string{"wc#1", "wc#2"} {
			if _, _, err := w.store.put(run, 0, set("k"), 2); err != nil {
				t.Fatal(err)
			}
			if released {
				w.store.release(run)
			}
		}
		if _, _, err := w.store.put("wc#3", 1, set("next"), 2); err != nil {
			t.Fatal(err)
		}
		pool := newShufflePool(1)
		for _, late := range []string{"wc#2", "wc#1"} {
			if _, _, err := w.store.put(late, 0, set("late"), 2); !errors.Is(err, errRunLeft) {
				t.Errorf("released=%v: late put of %s = %v, want errRunLeft", released, late, err)
			}
			if err := pool.replicate(addr, []message{{Type: "replicate", Run: late, TaskID: 2, Parts: set("late"), Reducers: 2}})[0]; err == nil {
				t.Errorf("released=%v: late replicate of %s accepted", released, late)
			}
		}
		pool.closeAll()
		got, _, err := fetchPartition(addr, "wc#3", 0, []int{1})
		if err != nil || len(got) != 1 || got[0].Partial != set("next")[0].Partial {
			t.Errorf("released=%v: the next run's output after the stragglers: %v, %v", released, got, err)
		}
		w.store.setReducers(2) // a new master session
		if _, _, err := w.store.put("wc#1", 0, set("k"), 2); err != nil {
			t.Errorf("released=%v: after a new helloack, put of a repeated run id = %v", released, err)
		}
	}
}

// TestRunLeavesNothing: whichever way Run ends, ok, failed with its retry
// budget exhausted or cancelled, every worker idle at its end gets the
// release, after which its store holds no task and its spill dir no file.
// A rogue worker that maps like the others, only faster, draws one of the
// three reduce partitions with its map task, as every worker does; in the
// failing and cancelled runs it waits until both spilling workers are
// idle, their partitions done, then reports a failed fetch or cancels the
// run. The cancelled run's reducer
// reports its fetch failure only after the release, naming a healthy
// worker, which must stay a live holder: after the release every holder
// refuses the run, so the failure says nothing about it.
func TestRunLeavesNothing(t *testing.T) {
	master, addr := startReduceCluster(t, MasterConfig{
		Reducers: 3, MaxAttempts: 1,
	}, 0)
	type member struct {
		w   *Worker
		dir string
	}
	var heldAtRelease atomic.Int64
	pool := make([]member, 2)
	for i := range pool {
		slow := chaos.New(chaos.Config{Seed: int64(i), TaskLatency: chaos.Dist{Kind: chaos.DistFixed, Base: 30 * time.Millisecond}})
		dir := t.TempDir()
		w, err := NewWorker(mustRegistry(t), WithChaos(slow), WithWorkerConfig(WorkerConfig{SpillBudget: 1, SpillDir: dir}))
		if err != nil {
			t.Fatal(err)
		}
		w.onRelease = func() { heldAtRelease.Add(int64(len(heldTasks(w)))) }
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		pool[i] = member{w, dir}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mode atomic.Value
	mode.Store("ok")
	resume := make(chan struct{})
	rogueWorker(t, addr, "rogue", func(m message) (message, bool) {
		how := mode.Load().(string)
		if m.Type != "reducetask" || how == "ok" {
			return message{}, false
		}
		for deadline := time.Now().Add(5 * time.Second); len(master.idle) < len(pool) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		holder := "127.0.0.1:1"
		if how == "cancel" {
			cancel()
			select {
			case <-resume:
			case <-time.After(5 * time.Second):
			}
			holder = pool[0].w.fetchAddr
		}
		return message{Type: "error", TaskID: m.TaskID, Fetch: holder, Message: "rogue: holder unreachable"}, true
	})
	lines := testLines(t, 300)
	for _, tc := range []struct{ mode, wantErr string }{
		{"ok", ""}, {"fail", "retry budget exhausted"}, {"cancel", context.Canceled.Error()},
	} {
		mode.Store(tc.mode)
		heldAtRelease.Store(0)
		waitIdle(t, master, len(pool)+1)
		got, _, err := master.Run(ctx, "wordcount", lines, len(pool)+1)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Fatal(err)
		case tc.wantErr == "" && !reflect.DeepEqual(got, runShard(wordCountJob(), lines, new(shardScratch))):
			t.Fatal("output diverged from the reference")
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Fatalf("%s: err = %v, want one saying %q", tc.mode, err, tc.wantErr)
		}
		// The release is fire and forget: wait for it to land.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			held, files := 0, 0
			for _, mem := range pool {
				held += len(heldTasks(mem.w))
				files += spillFilesLeft(t, mem.dir)
			}
			if held == 0 && files == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d task(s) still held and %d spill file(s) left after the run", tc.mode, held, files)
			}
		}
		if heldAtRelease.Load() == 0 {
			t.Errorf("%s: the stores held nothing when the release arrived; the run left nothing to free", tc.mode)
		}
	}
	close(resume)
	waitIdle(t, master, len(pool)+1) // the rogue's late report is in
	if !master.addrAlive(pool[0].w.fetchAddr, nil) {
		t.Error("a fetch failure reported after the release marked a healthy holder dead")
	}
}

// TestSpillCluster is the out-of-core e2e: a cluster whose workers run
// under a tight spill budget must produce the byte-identical reference
// result while actually spilling, never holding more than the budget
// resident in the map-output store.
func TestSpillCluster(t *testing.T) {
	const workers, shards, R = 3, 8, 3
	const budget = 2048
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		Reducers: R, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	pool := make([]*Worker, 0, workers)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(mustRegistry(t), WithWorkerConfig(WorkerConfig{
			SpillBudget: budget, SpillDir: t.TempDir(),
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		pool = append(pool, w)
	}
	if err := master.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 1500)
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, new(shardScratch))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("spill-budget cluster result diverged from reference")
	}
	if stats.SpillRuns == 0 || stats.SpilledBytes == 0 {
		t.Errorf("spill accounting empty under a %d-byte budget: runs=%d bytes=%d", budget, stats.SpillRuns, stats.SpilledBytes)
	}
	for i, w := range pool {
		peak, _, _ := w.StoreStats()
		if peak > budget {
			t.Errorf("worker %d: peak resident store %d bytes exceeds the %d budget", i, peak, budget)
		}
	}
	if trc := master.LastTrace(); trc != nil {
		b := trc.Breakdown(stats)
		if b.Spill <= 0 {
			t.Errorf("trace breakdown attributes no spill time: %+v", b)
		}
	}
}

// TestReplicaRecoveryAfterMapperLoss is the chaos test of the tentpole:
// a mapper that dies right after its first mapdone — shuffle listener
// and only primary copy gone with it — must not fail the job or change
// its output: the reduce phase reroutes to the peer replica (or runs the
// map task again on a worker) and completes.
func TestReplicaRecoveryAfterMapperLoss(t *testing.T) {
	const workers, shards, R = 3, 6, 3
	master, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: R})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < workers; i++ {
		// Every task takes 20 ms, so the first map wave reaches all three
		// workers and the mapper that dies has an output to lose.
		slow := chaos.New(chaos.Config{Seed: int64(i), TaskLatency: chaos.Dist{Kind: chaos.DistFixed, Base: 20 * time.Millisecond}})
		w, err := NewWorker(mustRegistry(t), WithChaos(slow))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			w.killAfterMapdone = true
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 800)
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, new(shardScratch))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-recovery result diverged from reference")
	}
	if stats.ReduceTasks != R {
		t.Errorf("ReduceTasks = %d, want %d", stats.ReduceTasks, R)
	}
	// The dead mapper completed at least its first shard, so at least one
	// partition had to route around the loss — via the peer replica in
	// this all-comp cluster.
	if stats.ReplicaFetches == 0 {
		t.Errorf("ReplicaFetches = 0, want > 0 (recovery must use the replica, not silently lose data)")
	}
	if stats.RecoveryWall <= 0 {
		t.Errorf("RecoveryWall = %v, want > 0", stats.RecoveryWall)
	}
}

// flipByteInFiles flips one bit in the first, the middle and the last
// byte of every non-empty file matching glob under dir (recursively one
// level of run dirs) and returns how many files it damaged. A map task's
// spill file is its sections back to back, so at two partitions both
// sections are hit whichever one the middle falls in.
func flipByteInFiles(t testing.TB, dir, glob string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "netmr-spill", "*", glob))
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil || len(data) == 0 {
			continue
		}
		// Distinct bits, so positions that coincide in a tiny file do not
		// undo each other.
		data[0] ^= 0x01
		data[len(data)/2] ^= 0x04
		data[len(data)-1] ^= 0x10
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	return damaged
}

// TestCorruptSpillSectionRefused: a spilled section whose bytes changed
// on disk must never reach a socket — the fetch is answered with an
// error frame (the connection survives it), in whichever section the
// damage lies, while undamaged sections still serve.
func TestCorruptSpillSectionRefused(t *testing.T) {
	w, err := NewWorker(mustRegistry(t), WithWorkerConfig(WorkerConfig{SpillBudget: 1, SpillDir: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := w.startFetchListener()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	text := map[string]float64{}
	for i := 0; i < 600; i++ {
		text[fmt.Sprintf("shared-prefix-key-%05d", i)] = float64(i)
	}
	parts := []partitionPartial{
		{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1, "b": 2})},
		{ID: 1, Partial: sectionFromMap(text)},
	}
	for task := 0; task < 2; task++ {
		if spills, _, err := w.store.put("wc#1", task, parts, 2); err != nil || spills != 1 {
			t.Fatalf("put task %d: spills=%d err=%v", task, spills, err)
		}
	}
	for p, want := range parts {
		got, _, err := fetchPartition(addr, "wc#1", p, []int{0, 1})
		if err != nil || got[0].Partial != want.Partial || got[1].Partial != want.Partial {
			t.Fatalf("partition %d before the damage: err=%v", p, err)
		}
	}
	// Damage task 0's file in each section in turn.
	sf := w.store.tasks[0].spill
	for p := range parts {
		flipByteAt(t, sf.f, sf.secs[p].off+sf.secs[p].n/2)
		_, _, err := fetchPartition(addr, "wc#1", p, []int{0, 1})
		if !isPeerRefusal(err) {
			t.Fatalf("partition %d: damaged section answered with %v, want an error frame", p, err)
		}
		if got, _, err := fetchPartition(addr, "wc#1", p, []int{1}); err != nil || got[0].Partial != parts[p].Partial {
			t.Fatalf("partition %d: undamaged task refused after the damage: %v", p, err)
		}
	}
}

// TestCorruptSpillRunFailsFold: a reduce-side run block that changed on
// disk fails the fold with an error instead of folding garbage.
func TestCorruptSpillRunFailsFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	f := newSpillFolder(512, dir, "fold#1")
	for task := 0; task < 4; task++ {
		m := map[string]float64{}
		for i := 0; i < 700; i++ {
			m[fmt.Sprintf("gather-key-%06d", i)] = rng.Float64()
		}
		f.add(task, sectionFromMap(m))
	}
	if f.spillRuns != 4 {
		t.Fatalf("%d runs, want 4", f.spillRuns)
	}
	if n := flipByteInFiles(t, dir, "reduce-run-*.spill"); n != 4 {
		t.Fatalf("damaged %d run files, want 4", n)
	}
	var out foldOut
	if _, err := f.fold(wordCountJob(), &out); err == nil {
		t.Fatal("fold over damaged runs succeeded")
	}
}

// TestCorruptSpillFailsOverToReplica is the end-to-end half: every
// section of every spill file one worker wrote, its own output and the
// replicas it holds, is damaged between the map phase and the shuffle.
// Reads are local-first, so the other worker's reducer gathers from its
// own intact store and never sees the damage; the victim's reducer finds
// every section it holds refused, reroutes on its own (own output to the
// replica, replicas to their primary), and the job's output is identical
// to the reference. Damaging one section a file would leave Failovers
// legitimately 0 whenever the flips all fell in the other partition.
func TestCorruptSpillFailsOverToReplica(t *testing.T) {
	const workers, shards, R = 2, 6, 2
	victimDir := t.TempDir()
	lines := testLines(t, 600)
	const sentinel = "corrupt-now"
	lines = append(lines, sentinel)
	job := wordCountJob()
	mapFn := job.Map
	var once sync.Once
	damaged := 0
	job.Map = func(record string, emit func(string, float64)) {
		if record == sentinel {
			// The last shard's last record: let the shards in flight on the
			// other worker land and spill, then damage what the victim holds.
			once.Do(func() {
				time.Sleep(300 * time.Millisecond)
				damaged = flipByteInFiles(t, victimDir, "task-*.spill")
			})
		}
		mapFn(record, emit)
	}
	reg := func() *Registry {
		r, err := NewRegistry(job)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	master, err := NewMaster(reg(), MasterConfig{Reducers: R})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < workers; i++ {
		dir := victimDir
		if i > 0 {
			dir = t.TempDir()
		}
		w, err := NewWorker(reg(), WithWorkerConfig(WorkerConfig{SpillBudget: 1, SpillDir: dir}))
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
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, new(shardScratch))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("result diverged from reference after spill corruption")
	}
	if damaged == 0 {
		t.Fatal("fixture: no spill file was damaged")
	}
	if stats.Failovers == 0 {
		t.Errorf("Failovers = 0 with %d damaged spill files: the reducers must have rerouted to replicas", damaged)
	}
	if stats.Reassignments != 0 {
		t.Errorf("Reassignments = %d: the failover is worker-local, no reduce task should have been retried", stats.Reassignments)
	}
}
