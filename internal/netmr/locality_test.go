package netmr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for the locality-first shuffle: a reducer reads every map task
// its own store holds — its own output or a ring neighbour's replica —
// from the store, and dials a peer only for the rest.

// fetchCounts snapshots the process-wide reducer fetch counters; tests
// here run one cluster at a time and assert on differences.
type fetchCounts struct{ local, ok, failed float64 }

func readFetchCounts() fetchCounts {
	return fetchCounts{
		local:  workerFetches.With("local").Value(),
		ok:     workerFetches.With("ok").Value(),
		failed: workerFetches.With("failed").Value(),
	}
}

func (a fetchCounts) since(b fetchCounts) fetchCounts {
	return fetchCounts{local: a.local - b.local, ok: a.ok - b.ok, failed: a.failed - b.failed}
}

// shardReference is the oracle: every shard mapped on its own, the
// partials folded by the serialMerge oracle in shard order.
func shardReference(job Job, lines []string, shards int) map[string]float64 {
	partials := make([]map[string]float64, shards)
	for id := range partials {
		partials[id] = runShard(job, lines[len(lines)*id/shards:len(lines)*(id+1)/shards], new(shardScratch))
	}
	return serialMerge(job, partials)
}

// TestLocalGatherMatchesSerialMerge is the locality property test: at 2,
// 3 and 4 workers, with the stores resident, with every partition set and
// gathered section forced through disk and at a budget that holds about
// half (8 MiB against tera-spill's map output, scaled down), with reduce
// tasks launched under the map tail, the output equals the serialMerge
// oracle. At two
// workers the ring makes each worker the other's replica holder, so the
// reducers hold everything: no byte crosses a shuffle socket on the
// reduce side, no fetch is issued, and what the stores spilled is
// streamed into the merge from where it lies, so the only spill files
// are the map side's, one a shard.
func TestLocalGatherMatchesSerialMerge(t *testing.T) {
	lines := testLines(t, 240)
	for _, n := range []int{2, 3, 4} {
		shards := 3 * n // more shards than workers: a map tail for reduce tasks to start under
		want := shardReference(wordCountJob(), lines, shards)
		for _, budget := range []int64{0, 1, 2048} {
			name := fmt.Sprintf("n=%d/budget=%d", n, budget)
			before := readFetchCounts()
			got, stats, _ := runPipelineCluster(t, pipelineRegistry(t, false, 200*time.Microsecond),
				MasterConfig{Reducers: n},
				WorkerConfig{SpillBudget: budget, SpillDir: t.TempDir()},
				n, shards, lines, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: output diverged from the serialMerge oracle", name)
			}
			if stats.Reassignments != 0 || stats.Failovers != 0 {
				t.Errorf("%s: Reassignments = %d, Failovers = %d on a healthy cluster", name, stats.Reassignments, stats.Failovers)
			}
			d := readFetchCounts().since(before)
			if d.local == 0 {
				t.Errorf("%s: no location was read from the reducer's own store", name)
			}
			if n == 2 && (stats.ShuffleBytes != 0 || d.ok != 0 || d.failed != 0) {
				t.Errorf("%s: ShuffleBytes = %d, %v peer fetches ok and %v failed; two workers hold everything locally",
					name, stats.ShuffleBytes, d.ok, d.failed)
			}
			if n > 2 && stats.ShuffleBytes == 0 {
				t.Errorf("%s: ShuffleBytes = 0, but a reducer holds only 2 of %d workers' output", name, n)
			}
			if n == 2 && budget == 1 && stats.SpillRuns != shards {
				t.Errorf("%s: SpillRuns = %d, want the %d map-side spills alone: spilled sections are streamed, not gathered into runs", name, stats.SpillRuns, shards)
			}
			if budget > 0 && stats.SpillRuns == 0 {
				t.Errorf("%s: nothing spilled", name)
			}
		}
	}
}

// heldTasks lists the map tasks a worker's store holds and their bytes.
func heldTasks(w *Worker) map[int]int64 {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	out := make(map[int]int64, len(w.store.tasks))
	for task, st := range w.store.tasks {
		out[task] = st.bytes
	}
	return out
}

// TestRingReplicaPlacement: on four workers every worker's replicas come
// from exactly one peer, its predecessor in sorted shuffle-address order
// (the first address used to hold everyone's), and with one shard and
// one reduce task a worker the reducers fetch (n−2)/n of the map output:
// two of the four shards of each partition are at home. A store is read
// as the run's release frame arrives, the last moment it holds the run.
func TestRingReplicaPlacement(t *testing.T) {
	const n = 4
	lines := testLines(t, 800)
	first := map[string]int{} // a shard's first record → its id
	for id := 0; id < n; id++ {
		lo := len(lines) * id / n
		lines[lo] = fmt.Sprintf("shard-%d %s", id, lines[lo])
		first[lines[lo]] = id
	}
	master, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: n})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	type member struct {
		w      *Worker
		mapped []int         // the shards this worker mapped
		held   map[int]int64 // its store as the release arrived
	}
	var mu sync.Mutex
	released := make(chan struct{}, n)
	ring := make([]*member, n)
	for i := range ring {
		mem := &member{}
		job := wordCountJob()
		inner := job.Map
		job.Map = func(record string, emit func(string, float64)) {
			if id, ok := first[record]; ok {
				mu.Lock()
				mem.mapped = append(mem.mapped, id)
				mu.Unlock()
				// Hold the shard long enough for the next one to go to
				// another worker: one shard each, by construction.
				time.Sleep(20 * time.Millisecond)
			}
			inner(record, emit)
		}
		reg, err := NewRegistry(job)
		if err != nil {
			t.Fatal(err)
		}
		if mem.w, err = NewWorker(reg); err != nil {
			t.Fatal(err)
		}
		mem.w.onRelease = func() {
			mem.held = heldTasks(mem.w)
			released <- struct{}{}
		}
		if err := mem.w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mem.w.Stop)
		ring[i] = mem
	}
	if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	before := readFetchCounts()
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, shardReference(wordCountJob(), lines, n)) {
		t.Fatal("output diverged from the serialMerge oracle")
	}
	for range ring { // every worker is idle when the reduce phase ends
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatal("a worker got no release frame")
		}
	}

	sort.Slice(ring, func(a, b int) bool { return ring[a].w.fetchAddr < ring[b].w.fetchAddr })
	var mapOutput int64
	for i, mem := range ring {
		if len(mem.mapped) != 1 {
			t.Fatalf("worker %d mapped shards %v; the fixture wants one each", i, mem.mapped)
		}
		held := mem.held
		mapOutput += held[mem.mapped[0]]
		pred := ring[(i+n-1)%n]
		want := map[int]bool{mem.mapped[0]: true, pred.mapped[0]: true}
		if len(held) != len(want) {
			t.Errorf("worker %d holds tasks %v, want its own %v and its predecessor's %v", i, held, mem.mapped, pred.mapped)
		}
		for task := range held {
			if !want[task] {
				t.Errorf("worker %d holds task %d, which neither it nor its ring predecessor mapped", i, task)
			}
		}
	}
	// Each reducer reads its two home outputs from its own store, in one
	// read or two as they land, and fetches the other two. The local count
	// depends on the landing order; ok == 2n (and ShuffleBytes below) is
	// what pins the locality: exactly the two outputs a reducer does not
	// hold cross the socket.
	d := readFetchCounts().since(before)
	if d.local < n || d.local > 2*n || d.ok != 2*n || d.failed != 0 {
		t.Errorf("fetches local/ok/failed = %v/%v/%v, want %d–%d/%d/0", d.local, d.ok, d.failed, n, 2*n, 2*n)
	}
	// ShuffleBytes counts frames as they crossed the socket; allow for hash
	// skew and frame headers.
	crossed := float64(stats.ShuffleBytes)
	if want := float64(mapOutput) * (n - 2) / n; math.Abs(crossed-want) > 0.1*want {
		t.Errorf("reducers fetched %.0f bytes of %d map output, want ≈ (n−2)/n = %.0f", crossed, mapOutput, want)
	}
}

// localitySets builds four map tasks' partition sets over R partitions;
// task 1 dwarfs the rest, so fetching it shows in the byte count.
func localitySets(R int) [][]partitionPartial {
	sets := make([][]partitionPartial, 4)
	for task := range sets {
		keys := 3
		if task == 1 {
			keys = 2000
		}
		for p := 0; p < R; p++ {
			m := map[string]float64{}
			for i := 0; i < keys; i++ {
				m[fmt.Sprintf("task%d-part%d-key-%04d", task, p, i)] = float64(i)
			}
			sets[task] = append(sets[task], partitionPartial{ID: p, Partial: sectionFromMap(m)})
		}
	}
	return sets
}

// storeWorker starts a worker's shuffle plane alone (no master) with the
// given tasks' sets in its store for run, under a spill budget and dir.
func storeWorker(t *testing.T, run string, sets [][]partitionPartial, budget int64, dir string, tasks ...int) *Worker {
	t.Helper()
	return storeWorkerWith(t, mustRegistry(t), run, sets, budget, dir, tasks...)
}

func storeWorkerWith(t *testing.T, reg *Registry, run string, sets [][]partitionPartial, budget int64, dir string, tasks ...int) *Worker {
	t.Helper()
	w, err := NewWorker(reg, WithWorkerConfig(WorkerConfig{SpillBudget: budget, SpillDir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	if w.fetchAddr, err = w.startFetchListener(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	for _, task := range tasks {
		if _, _, err := w.store.put(run, task, sets[task], len(sets[task])); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// gathered flattens one round's results: task → section, bytes fetched,
// failovers.
func gathered(results []locResult) (map[int]section, int64, int) {
	got := map[int]section{}
	var fetched int64
	failovers := 0
	for _, r := range results {
		fetched += r.fetched
		failovers += r.failovers
		for _, part := range r.parts {
			got[part.ID] = part.Partial
		}
	}
	return got, fetched, failovers
}

// TestPartiallyHeldLocationIsSplit: a reducer that holds a replica of
// one of a primary's three tasks (the ring moved mid-job, or a
// replication was refused) reads that one at home and fetches the other
// two — the location is divided per task, not refetched whole — and a
// location at its own address never touches the socket.
func TestPartiallyHeldLocationIsSplit(t *testing.T) {
	const run, R = "wc#1", 2
	sets := localitySets(R)
	primary := storeWorker(t, run, sets, 0, "", 0, 1, 2)
	reducer := storeWorker(t, run, sets, 0, "", 1, 3) // task 1 as a replica, task 3 its own
	locs := []fetchLoc{{Addr: primary.fetchAddr, Tasks: []int{0, 1, 2}}, {Addr: reducer.fetchAddr, Tasks: []int{3}}}
	before := readFetchCounts()
	for p := 0; p < R; p++ {
		results, err := reducer.fetchRound(run, p, locs, nil, false)
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		got, fetched, failovers := gathered(results)
		for task := range sets {
			if got[task] != sets[task][p].Partial {
				t.Errorf("partition %d: task %d's section diverged or is missing", p, task)
			}
		}
		small := int64(len(sets[0][p].Partial) + len(sets[2][p].Partial))
		if fetched < small || fetched > small+256 || failovers != 0 {
			t.Errorf("partition %d: fetched %d bytes with %d failovers, want tasks 0 and 2 only (%d plus one frame header)", p, fetched, failovers, small)
		}
	}
	if d := readFetchCounts().since(before); d.local != 2*R || d.ok != R || d.failed != 0 {
		t.Errorf("fetches local/ok/failed = %v/%v/%v, want %d/%d/0", d.local, d.ok, d.failed, 2*R, R)
	}
}

// streamSets builds four map tasks' partition sets over R partitions,
// every section four blocks long, so a reducer holding a spilled one
// streams it block by block.
func streamSets(R int) [][]partitionPartial {
	rng := rand.New(rand.NewSource(24))
	sets := make([][]partitionPartial, 4)
	for task := range sets {
		for p := 0; p < R; p++ {
			m := map[string]float64{}
			for len(m) < 4*spillBlockSize/109 {
				m[randomKey(rng, 100)] = float64(1 + rng.Intn(5))
			}
			sets[task] = append(sets[task], partitionPartial{ID: p, Partial: sectionFromMap(m)})
		}
	}
	return sets
}

// foldOf is the oracle of the reduce-task tests: partition p of every
// set, folded in memory.
func foldOf(t *testing.T, sets [][]partitionPartial, p int) section {
	t.Helper()
	f := newSpillFolder(0, "", "oracle")
	for task, set := range sets {
		f.add(task, set[p].Partial)
	}
	var out foldOut
	if _, err := f.fold(wordCountJob(), &out); err != nil {
		t.Fatal(err)
	}
	return out.b.section()
}

// reduceOn hands w one reducetask frame the way its serve loop would and
// returns the frame it answers with.
func reduceOn(t *testing.T, w *Worker, m message) message {
	t.Helper()
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.runReduceTask(newConn(near), m, 0, nil)
	}()
	reply, err := newConn(far).recv(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	return reply
}

// blockStarts lists the file offsets of the blocks of task's section of
// partition p in w's store.
func blockStarts(t *testing.T, w *Worker, task, p int) (f *os.File, starts []int64) {
	t.Helper()
	r := w.store.tasks[task].spill.blocks(p)
	for r.off < r.end {
		starts = append(starts, r.off)
		if _, err := r.next(nil); err != nil {
			t.Fatal(err)
		}
	}
	return w.store.tasks[task].spill.f, starts
}

// flipByteAt flips one bit of f's byte at off; a second call restores it.
func flipByteAt(t *testing.T, f *os.File, off int64) {
	t.Helper()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// spillFilesLeft counts the files under dir's spill scratch tree.
func spillFilesLeft(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "netmr-spill", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// TestDamagedLocalCopyIsRerouted: a reducer streams the sections its own
// store spilled, and a block that fails its checksum mid-merge, the
// first, a middle or the last one, is never folded. The task drops its
// partial output and gathers again with every local copy verified whole:
// a damaged replica is fetched from its primary, the reducer's own
// damaged output from the replica holder the frame named, each a counted
// failover beside the re-gather's own, and the output is the healthy
// one. With no replica named the task fails, naming the reducer's own
// address for the master to plan around.
func TestDamagedLocalCopyIsRerouted(t *testing.T) {
	const run, R = "wc#1", 2
	sets := streamSets(R)
	dir := t.TempDir()
	peer := storeWorker(t, run, sets, 0, "", 0, 1, 2, 3) // primary of 0–2, replica holder of 3
	reducer := storeWorker(t, run, sets, 1, dir, 1, 3)   // everything it holds is on disk
	frame := func(p int, reps []fetchLoc) message {
		return message{Type: "reducetask", Job: "wordcount", TaskID: p, Run: run, Reps: reps,
			Locs: []fetchLoc{{Addr: peer.fetchAddr, Tasks: []int{0, 1, 2}}, {Addr: reducer.fetchAddr, Tasks: []int{3}}}}
	}
	reps := []fetchLoc{{Addr: peer.fetchAddr, Tasks: []int{3}}}
	for p := 0; p < R; p++ {
		want := foldOf(t, sets, p)
		if got := reduceOn(t, reducer, frame(p, nil)); got.Type != "result" || got.Folded != want || got.Failovers != 0 {
			t.Fatalf("partition %d, nothing damaged: %q frame (%s), %d failovers, output identical: %v", p, got.Type, got.Message, got.Failovers, got.Folded == want)
		}
		for _, victim := range []int{1, 3} { // the replica, the own output
			f, starts := blockStarts(t, reducer, victim, p)
			if len(starts) < 3 {
				t.Fatalf("fixture: task %d's section is %d blocks, want 3 or more", victim, len(starts))
			}
			for _, blk := range []int{0, len(starts) / 2, len(starts) - 1} {
				at := starts[blk] + blockHeaderMax + 7
				flipByteAt(t, f, at)
				got := reduceOn(t, reducer, frame(p, reps))
				if got.Type != "result" || got.Folded != want {
					t.Fatalf("partition %d, task %d block %d damaged: %q frame (%s), output identical: %v", p, victim, blk, got.Type, got.Message, got.Folded == want)
				}
				if got.Failovers != 2 {
					t.Errorf("partition %d, task %d block %d damaged: %d failovers, want 2 (the re-gather, the reroute)", p, victim, blk, got.Failovers)
				}
				if got = reduceOn(t, reducer, frame(p, nil)); victim == 3 && (got.Type != "error" || got.Fetch != reducer.fetchAddr) {
					t.Errorf("partition %d, own output damaged and no replica named: %q frame naming %q, want an error naming the reducer's own address", p, got.Type, got.Fetch)
				}
				flipByteAt(t, f, at)
			}
		}
	}
	if n := spillFilesLeft(t, dir); n != 2 {
		t.Errorf("%d files under the reducer's spill dir, want its 2 spill files and nothing of the tasks'", n)
	}
}

// hookedWorker is storeWorker whose job runs hook the first time each
// reduce task's fold reaches its Reduce: the gather is over, every source
// has its first block in hand, and the rest is still to read.
func hookedWorker(t *testing.T, hook func(), run string, sets [][]partitionPartial, budget int64, dir string, tasks ...int) *Worker {
	t.Helper()
	job := wordCountJob()
	inner, prev := job.Reduce, ""
	job.Reduce = func(key string, values []float64) float64 {
		if key < prev || prev == "" {
			hook()
		}
		prev = key
		return inner(key, values)
	}
	reg, err := NewRegistry(job)
	if err != nil {
		t.Fatal(err)
	}
	return storeWorkerWith(t, reg, run, sets, budget, dir, tasks...)
}

// TestDamagedRunIsRegathered: a reduce-side run block that changed on
// disk fails the fold, never folds; the task gathers again, writes fresh
// runs and answers with the healthy output and one counted failover.
// Damage that comes back a second time is reported with its cause.
func TestDamagedRunIsRegathered(t *testing.T) {
	const run, R = "wc#1", 2
	sets := streamSets(R)
	peer := storeWorker(t, run, sets, 0, "", 0, 1, 2, 3)
	for _, persistent := range []bool{false, true} {
		dir := t.TempDir()
		hits := 0
		hook := func() {
			if hits++; hits == 1 || persistent {
				if n := flipByteInFiles(t, dir, "reduce-run-*.spill"); n == 0 {
					t.Error("fixture: no run file to damage")
				}
			}
		}
		// Every section is fetched and is over the budget on its own: four runs.
		reducer := hookedWorker(t, hook, run, sets, spillBlockSize, dir)
		got := reduceOn(t, reducer, message{Type: "reducetask", Job: "wordcount", TaskID: 0, Run: run,
			Locs: []fetchLoc{{Addr: peer.fetchAddr, Tasks: []int{0, 1, 2, 3}}}})
		switch {
		case persistent && (got.Type != "error" || !strings.Contains(got.Message, "checksum")):
			t.Errorf("runs damaged twice: %q frame (%s), want an error naming the failed checksum", got.Type, got.Message)
		case !persistent && (got.Type != "result" || got.Folded != foldOf(t, sets, 0) || got.Failovers != 1 || got.Spills != 8):
			t.Errorf("runs damaged once: %q frame (%s), %d failovers, %d runs; want the healthy output, 1 and 8", got.Type, got.Message, got.Failovers, got.Spills)
		}
		if n := spillFilesLeft(t, dir); n != 0 {
			t.Errorf("persistent=%v: %d run files outlived the task", persistent, n)
		}
	}
}

// TestStreamSurvivesStoreChurn: the store may close a spill file while a
// reduce task streams it. A put that replaces the task (a replica of
// output already held, a speculation loser) sends the merge to the new
// copy; a new run's put evicts everything, and the merge finishes from
// the holders the frame named, or fails naming its own address when it
// named none. The closed file yields an error, never bytes, and neither
// a descriptor nor a file outlives it.
func TestStreamSurvivesStoreChurn(t *testing.T) {
	const run, R = "wc#1", 2
	sets := streamSets(R)
	peer := storeWorker(t, run, sets, 0, "", 0, 1, 2, 3)
	want := foldOf(t, sets, 0)
	for name, tc := range map[string]struct {
		putRun    string
		reps      bool
		failovers int // the re-gather, plus the own output's reroute once it is evicted
		wantErr   bool
	}{
		"replaced":        {putRun: run, failovers: 1},
		"evicted":         {putRun: "wc#2", reps: true, failovers: 2},
		"evicted-no-reps": {putRun: "wc#2", wantErr: true},
	} {
		dir := t.TempDir()
		var reducer *Worker
		var old *os.File
		hits := 0
		hook := func() {
			if hits++; hits > 1 {
				return
			}
			old = reducer.store.tasks[1].spill.f
			done := make(chan error)
			go func() { // another goroutine's put, as a replicate frame's would be
				_, _, err := reducer.store.put(tc.putRun, 1, sets[1], R)
				done <- err
			}()
			if err := <-done; err != nil {
				t.Errorf("%s: put: %v", name, err)
			}
		}
		reducer = hookedWorker(t, hook, run, sets, 1, dir, 1, 3)
		m := message{Type: "reducetask", Job: "wordcount", TaskID: 0, Run: run,
			Locs: []fetchLoc{{Addr: peer.fetchAddr, Tasks: []int{0, 1, 2}}, {Addr: reducer.fetchAddr, Tasks: []int{3}}}}
		if tc.reps {
			m.Reps = []fetchLoc{{Addr: peer.fetchAddr, Tasks: []int{3}}}
		}
		got := reduceOn(t, reducer, m)
		switch {
		case tc.wantErr && (got.Type != "error" || got.Fetch != reducer.fetchAddr || !strings.Contains(got.Message, "not held")):
			t.Errorf("%s: %q frame naming %q (%s), want an error naming the reducer's own address and the cause", name, got.Type, got.Fetch, got.Message)
		case !tc.wantErr && (got.Type != "result" || got.Folded != want || got.Failovers != tc.failovers):
			t.Errorf("%s: %q frame (%s), %d failovers, output identical: %v; want the healthy output and %d", name, got.Type, got.Message, got.Failovers, got.Folded == want, tc.failovers)
		}
		if _, err := old.ReadAt(make([]byte, 1), 0); !errors.Is(err, os.ErrClosed) {
			t.Errorf("%s: the replaced spill file still reads (%v): its descriptor leaked", name, err)
		}
		if n := spillFilesLeft(t, dir); n != map[string]int{run: 2, "wc#2": 1}[tc.putRun] {
			t.Errorf("%s: %d files under the spill dir, want only what the store holds", name, n)
		}
		reducer.Stop()
		if n := spillFilesLeft(t, dir); n != 0 {
			t.Errorf("%s: %d spill files outlived the worker", name, n)
		}
	}
}

// TestMapperLossFinishesFromLocalReplica: at two workers the mapper that
// dies right after its mapdone leaves its output on the survivor as a
// replica. The heartbeat retires the dead worker while the survivor is
// still mapping, so the reduce tasks complete on the survivor alone,
// which reads its own output and the replica from its own store: no
// fetch is issued, nothing crosses a shuffle socket. The dead worker
// rejoins the pool with its mapdone, so it may be handed a reduce task
// under the survivor's map tail first: that launch, and no other, fails.
func TestMapperLossFinishesFromLocalReplica(t *testing.T) {
	lines := testLines(t, 400)
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		Reducers:          2,
		HeartbeatInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	var survivor string
	for _, doomed := range []bool{true, false} {
		job := wordCountJob()
		// Each worker holds its shard, so each maps one and the dead
		// worker is never handed the other; the survivor's outlasts the
		// dead worker's detection.
		hold := 20 * time.Millisecond
		if !doomed {
			hold = 150 * time.Millisecond
		}
		var once sync.Once
		inner := job.Map
		job.Map = func(record string, emit func(string, float64)) {
			once.Do(func() { time.Sleep(hold) })
			inner(record, emit)
		}
		reg, err := NewRegistry(job)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(reg)
		if err != nil {
			t.Fatal(err)
		}
		w.killAfterMapdone = doomed
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		if !doomed {
			survivor = w.netConn.LocalAddr().String() // the worker's ID on the master
		}
	}
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	before := readFetchCounts()
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, shardReference(wordCountJob(), lines, 2)) {
		t.Fatal("output diverged from the serialMerge oracle after the mapper's loss")
	}
	if stats.Reassignments > 1 {
		t.Errorf("Reassignments = %d, want at most the dead worker's one reduce launch: the replica was already where the reducers ran", stats.Reassignments)
	}
	if i := slices.IndexFunc(stats.PerWorker, func(ws WorkerStats) bool { return ws.ID == survivor }); i < 0 {
		t.Errorf("the survivor %s is missing from the per-worker stats %+v", survivor, stats.PerWorker)
	} else if n := stats.PerWorker[i].Reassignments; n != 0 {
		t.Errorf("the survivor was charged %d reassignments, want 0: only the dead worker's launch may fail", n)
	}
	if stats.ReplicaFetches == 0 {
		t.Error("ReplicaFetches = 0: the dead mapper's output can only have come from its replica")
	}
	if d := readFetchCounts().since(before); stats.ShuffleBytes != 0 || d.ok != 0 || d.failed != 0 || d.local == 0 {
		t.Errorf("ShuffleBytes = %d, fetches local/ok/failed = %v/%v/%v; want every read local", stats.ShuffleBytes, d.local, d.ok, d.failed)
	}
}

// TestPickReplicaAddrRing pins the placement rule: the next live
// address after the mapper's, wrapping, never the mapper itself, dead
// addresses skipped, "" when no peer qualifies.
func TestPickReplicaAddrRing(t *testing.T) {
	m, err := NewMaster(mustRegistry(t), MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.pickReplicaAddr("a:1", nil); got != "" {
		t.Errorf("no address registered: got %q, want none", got)
	}
	m.addFetchAddr("a:1")
	if got := m.pickReplicaAddr("a:1", nil); got != "" {
		t.Errorf("single live address: got %q, want none (a replica beside its primary is no replica)", got)
	}
	for _, addr := range []string{"b:1", "c:1", "d:1"} {
		m.addFetchAddr(addr)
	}
	for self, want := range map[string]string{"a:1": "b:1", "b:1": "c:1", "c:1": "d:1", "d:1": "a:1", "b:2": "c:1", "zz:9": "a:1"} {
		if got := m.pickReplicaAddr(self, nil); got != want {
			t.Errorf("pickReplicaAddr(%q) = %q, want %q", self, got, want)
		}
	}
	m.markAddrDead("c:1")
	for self, want := range map[string]string{"b:1": "d:1", "c:1": "d:1", "d:1": "a:1"} {
		if got := m.pickReplicaAddr(self, nil); got != want {
			t.Errorf("with c:1 dead, pickReplicaAddr(%q) = %q, want %q", self, got, want)
		}
	}
	m.markAddrDead("a:1")
	if got := m.pickReplicaAddr("d:1", nil); got != "b:1" {
		t.Errorf("with a:1 and c:1 dead, pickReplicaAddr(d:1) = %q, want b:1 (wrap past the dead head)", got)
	}
}
