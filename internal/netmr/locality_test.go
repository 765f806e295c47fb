package netmr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
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
// partials folded by the master's serialMerge in shard order.
func shardReference(job Job, lines []string, shards int) map[string]float64 {
	partials := make([]map[string]float64, shards)
	for id := range partials {
		partials[id] = runShard(job, lines[len(lines)*id/shards:len(lines)*(id+1)/shards], newShardScratch())
	}
	return serialMerge(job, partials)
}

// TestLocalGatherMatchesSerialMerge is the tentpole's property test:
// at 2, 3 and 4 workers, with the stores resident and with every
// partition set and gathered section forced through disk, barrier and
// early dispatch, the output equals the serialMerge oracle. At two
// workers the ring makes each worker the other's replica holder, so the
// reducers hold everything: no byte crosses a shuffle socket on the
// reduce side and no fetch is issued.
func TestLocalGatherMatchesSerialMerge(t *testing.T) {
	lines := testLines(t, 240)
	for _, n := range []int{2, 3, 4} {
		shards := 3 * n // more shards than workers: a map tail for early dispatch
		want := shardReference(wordCountJob(), lines, shards)
		for _, budget := range []int64{0, 1} {
			for _, early := range []bool{false, true} {
				name := fmt.Sprintf("n=%d/budget=%d/early=%v", n, budget, early)
				var delay time.Duration
				if early {
					delay = 200 * time.Microsecond
				}
				before := readFetchCounts()
				got, stats, _ := runPipelineCluster(t, pipelineRegistry(t, false, delay),
					MasterConfig{TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: n, EarlyShuffle: early},
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
// two of the four shards of each partition are at home.
func TestRingReplicaPlacement(t *testing.T) {
	const n = 4
	lines := testLines(t, 800)
	first := map[string]int{} // a shard's first record → its id
	for id := 0; id < n; id++ {
		lo := len(lines) * id / n
		lines[lo] = fmt.Sprintf("shard-%d %s", id, lines[lo])
		first[lines[lo]] = id
	}
	master, err := NewMaster(mustRegistry(t), MasterConfig{TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: n})
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
		mapped []int // the shards this worker mapped
	}
	var mu sync.Mutex
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
	got, stats, err := master.Run(context.Background(), "wordcount", lines, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, shardReference(wordCountJob(), lines, n)) {
		t.Fatal("output diverged from the serialMerge oracle")
	}

	sort.Slice(ring, func(a, b int) bool { return ring[a].w.fetchAddr < ring[b].w.fetchAddr })
	var mapOutput int64
	for i, mem := range ring {
		if len(mem.mapped) != 1 {
			t.Fatalf("worker %d mapped shards %v; the fixture wants one each", i, mem.mapped)
		}
		held := heldTasks(mem.w)
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
	// Each reducer gathers four locations: two at home, two fetched.
	d := readFetchCounts().since(before)
	if d.local != 2*n || d.ok != 2*n || d.failed != 0 {
		t.Errorf("fetches local/ok/failed = %v/%v/%v, want %d/%d/0", d.local, d.ok, d.failed, 2*n, 2*n)
	}
	// ShuffleBytes counts frames as they crossed the socket; add back what
	// compression saved and allow for hash skew and frame headers.
	crossed := float64(stats.ShuffleBytes + stats.CompressedBytes)
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
	w, err := NewWorker(mustRegistry(t), WithWorkerConfig(WorkerConfig{SpillBudget: budget, SpillDir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	if w.fetchAddr, err = w.startFetchListener(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	for _, task := range tasks {
		if _, _, _, err := w.store.put(run, task, sets[task], len(sets[task])); err != nil {
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
		results, err := reducer.fetchRound(run, p, locs, nil, defaultShuffleTimeout)
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

// TestDamagedLocalCopyIsRerouted: a local read that fails its checksum
// is never a section. A damaged replica is fetched from its primary and
// counts as a failover; the reducer's own damaged output fails over to
// the replica holder repOf names; with no replica named the round fails,
// naming the reducer's own address for the master's lineage.
func TestDamagedLocalCopyIsRerouted(t *testing.T) {
	const run, R = "wc#1", 2
	sets := localitySets(R)
	dir := t.TempDir()
	peer := storeWorker(t, run, sets, 0, "", 0, 1, 2, 3) // primary of 0–2, replica holder of 3
	reducer := storeWorker(t, run, sets, 1, dir, 1, 3)   // everything it holds is on disk
	if n := flipByteInFiles(t, dir, "task-*.spill"); n != 2 {
		t.Fatalf("fixture: damaged %d spill files, want 2", n)
	}
	locs := []fetchLoc{{Addr: peer.fetchAddr, Tasks: []int{0, 1, 2}}, {Addr: reducer.fetchAddr, Tasks: []int{3}}}
	repOf := map[int]string{3: peer.fetchAddr}
	for p := 0; p < R; p++ {
		results, err := reducer.fetchRound(run, p, locs, repOf, defaultShuffleTimeout)
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		got, _, failovers := gathered(results)
		for task := range sets {
			if got[task] != sets[task][p].Partial {
				t.Errorf("partition %d: task %d's section diverged or is missing", p, task)
			}
		}
		if failovers != 2 {
			t.Errorf("partition %d: %d failovers, want 2 (the replica to its primary, the own output to its replica)", p, failovers)
		}
		_, err = reducer.fetchRound(run, p, locs, nil, defaultShuffleTimeout)
		var fe *fetchError
		if !errors.As(err, &fe) || fe.addr != reducer.fetchAddr {
			t.Errorf("partition %d, no replica named: err = %v, want a fetchError naming the reducer's own address", p, err)
		}
	}
}

// TestMapperLossFinishesFromLocalReplica: at two workers the mapper that
// dies right after its mapdone leaves its output on the survivor as a
// replica. The heartbeat retires the dead worker while the survivor is
// still mapping, so the reduce phase runs on the survivor alone, which
// reads its own output and the replica from its own store: no task is
// retried, no fetch is issued, nothing crosses a shuffle socket.
func TestMapperLossFinishesFromLocalReplica(t *testing.T) {
	lines := testLines(t, 400)
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: 2,
		HeartbeatInterval: 5 * time.Millisecond, HeartbeatTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for _, doomed := range []bool{true, false} {
		job := wordCountJob()
		if !doomed {
			// The survivor's shard outlasts the dead worker's detection.
			var once sync.Once
			inner := job.Map
			job.Map = func(record string, emit func(string, float64)) {
				once.Do(func() { time.Sleep(150 * time.Millisecond) })
				inner(record, emit)
			}
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
	}
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	before := readFetchCounts()
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, shardReference(wordCountJob(), lines, 2)) {
		t.Fatal("output diverged from the serialMerge oracle after the mapper's loss")
	}
	if stats.Reassignments != 0 {
		t.Errorf("Reassignments = %d, want 0: the replica was already where the reducers ran", stats.Reassignments)
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
	if got := m.pickReplicaAddr("a:1"); got != "" {
		t.Errorf("no address registered: got %q, want none", got)
	}
	m.addFetchAddr("a:1")
	if got := m.pickReplicaAddr("a:1"); got != "" {
		t.Errorf("single live address: got %q, want none (a replica beside its primary is no replica)", got)
	}
	for _, addr := range []string{"b:1", "c:1", "d:1"} {
		m.addFetchAddr(addr)
	}
	for self, want := range map[string]string{"a:1": "b:1", "b:1": "c:1", "c:1": "d:1", "d:1": "a:1", "b:2": "c:1", "zz:9": "a:1"} {
		if got := m.pickReplicaAddr(self); got != want {
			t.Errorf("pickReplicaAddr(%q) = %q, want %q", self, got, want)
		}
	}
	m.markAddrDead("c:1")
	for self, want := range map[string]string{"b:1": "d:1", "c:1": "d:1", "d:1": "a:1"} {
		if got := m.pickReplicaAddr(self); got != want {
			t.Errorf("with c:1 dead, pickReplicaAddr(%q) = %q, want %q", self, got, want)
		}
	}
	m.markAddrDead("a:1")
	if got := m.pickReplicaAddr("d:1"); got != "b:1" {
		t.Errorf("with a:1 and c:1 dead, pickReplicaAddr(d:1) = %q, want b:1 (wrap past the dead head)", got)
	}
}
