package netmr

import (
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"ipso/internal/chaos"
)

// The carried reduce launch: the map batch that takes a worker's last map
// work carries the next reduce task in the same write, and a reduce launch
// takes the map outputs it awaits from its own store as they land, the
// master naming only the ones its worker does not hold.

// TestCarryTakesLastMapWork: a map batch carries the first ready reduce
// task when it empties the map queue or fills its worker's fair share of
// the workers that may draw map work, the idle ones and its own, and only
// then; a reduce task in backoff is not ready.
func TestCarryTakesLastMapWork(t *testing.T) {
	m, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.count.Store(2)
	var stats Stats
	w := &workerHandle{id: "a", fetch: "a"}
	for _, tc := range []struct {
		name      string
		queued, n int  // map tasks left queued, tasks in the batch (the ones after them)
		idle      int  // other workers in the idle pool
		backoff   bool // the reduce tasks wait out a backoff
		want      int  // the reduce task carried, -1 none
	}{
		{"queue emptied", 0, 1, 1, false, 0},
		{"share filled", 4, 4, 1, false, 0},
		{"more map work to come", 4, 3, 1, false, -1},
		{"the other worker busy", 4, 4, 0, false, -1},
		{"queue emptied, the other worker busy", 0, 4, 0, false, 0},
		{"reduce tasks in backoff", 0, 4, 1, true, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for range tc.idle {
				m.idle <- &workerHandle{id: "b", fetch: "b"}
			}
			defer m.drainIdle()
			r := m.newJobRun("wordcount", testLines(t, 80), 8, &stats)
			if tc.backoff {
				for i := range r.reduces.queue {
					r.reduces.queue[i].readyAt = time.Now().Add(time.Hour)
				}
			}
			batch := r.maps.queue[tc.queued : tc.queued+tc.n]
			r.maps.queue = r.maps.queue[:tc.queued]
			rl := r.carry(w, batch)
			switch {
			case tc.want < 0 && rl != nil:
				t.Fatalf("carried reduce task %d, want none", rl.t.id)
			case tc.want < 0:
				return
			case rl == nil:
				t.Fatalf("carried nothing, want reduce task %d", tc.want)
			case rl.t.id != tc.want || r.reduces.queued(tc.want) || r.reduces.inflight[tc.want].launches != 1:
				t.Fatalf("carried task %d (queued %v); want task %d taken off the queue and in flight", rl.t.id, r.reduces.queued(tc.want), tc.want)
			case !rl.mapping.Load() || !slices.Equal(r.carried, []*reduceLaunch{rl}):
				t.Fatalf("launch mapping %v, %d carried; want it in its map part, the run's one carried launch", rl.mapping.Load(), len(r.carried))
			case rl.s == nil || rl.s.home != w.fetch || len(rl.s.awaits) != r.shards-tc.n:
				t.Fatalf("stream %+v; want one at %s awaiting the %d map outputs of other batches", rl.s, w.fetch, r.shards-tc.n)
			}
		})
	}
}

// TestCallBackPrefersEndedMapPart: the call-back takes the highest reduce
// launch whose map part has ended, whose worker is free at once, over a
// higher one still mapping; with none ended, the highest.
func TestCallBackPrefersEndedMapPart(t *testing.T) {
	m, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	r := m.newJobRun("wordcount", testLines(t, 40), 2, &stats)
	streams := make([]*locStream, 3)
	for p := range streams {
		streams[p] = &locStream{p: p, updates: make(chan message, 2), awaits: []int{0}}
		r.streams[streams[p]] = true
	}
	mapping := &reduceLaunch{s: streams[2]}
	mapping.mapping.Store(true)
	r.carried = append(r.carried, mapping)
	aborted := func(s *locStream) bool {
		select {
		case u := <-s.updates:
			return u.Message == "abort"
		default:
			return false
		}
	}
	r.callBack()
	if !r.calledBack[streams[1]] || !aborted(streams[1]) || len(r.calledBack) != 1 {
		t.Fatalf("called back %v; want partition 1's launch, the highest whose map part has ended", r.calledBack)
	}
	delete(r.streams, streams[0])
	r.callBack()
	if !r.calledBack[streams[2]] || !aborted(streams[2]) {
		t.Fatal("with every other launch gone, the one still mapping was not called back")
	}
}

// TestStaleMorelocsIgnored: a reduce launch that finds every map output it
// awaits in its own store folds without a word from the master; the
// morelocs that names them after its result is ignored, and the next task
// runs, from the store too.
func TestStaleMorelocsIgnored(t *testing.T) {
	const run, R = "wordcount#1", 2
	w, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	w.reducers = R
	w.store.setReducers(R)
	lines := testLines(t, 80)
	var sets [][]partitionPartial
	for task, shard := range [][]string{lines[:40], lines[40:]} {
		set := runShardPartitioned(wordCountJob(), shard, new(shardScratch), R, nil)
		if _, _, err := w.store.put(run, task, set, R); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	master, worker := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		w.serve(newConn(worker))
	}()
	c := newConn(master)
	defer func() {
		_ = c.close()
		<-served
	}()
	for p := 0; p < R; p++ {
		if err := c.send(message{Type: "reducetask", Job: "wordcount", TaskID: p, Run: run, Total: len(sets)}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		reply, err := c.recv(5 * time.Second)
		if err != nil || reply.Type != "result" || reply.TaskID != p {
			t.Fatalf("partition %d: %+v, %v; want its result", p, reply, err)
		}
		want := newSpillFolder(0, "", run)
		for task, set := range sets {
			want.add(task, partOf(set, p))
		}
		var out foldOut
		if _, err := want.fold(wordCountJob(), &out); err != nil {
			t.Fatal(err)
		}
		if reply.Folded != out.b.section() || reply.Bytes != 0 {
			t.Fatalf("partition %d: %d bytes fetched, output equal to the oracle's %v; want 0 and equal", p, reply.Bytes, reply.Folded == out.b.section())
		}
		// The stale update names a holder nobody listens on: acting on it
		// would fail the next task.
		stale := message{Type: "morelocs", Run: run, TaskID: p, Locs: []fetchLoc{{Addr: "127.0.0.1:1", Tasks: []int{0, 1}}}}
		if err := c.send(stale, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaLandsBeforeLocation: with every master frame held back by
// latency, each reducer of a two-worker run finds its own outputs and the
// other worker's replicas in its store and folds once they land: it waits
// for no location the master would send, fetches nothing over a socket,
// and the output is the oracle's.
func TestReplicaLandsBeforeLocation(t *testing.T) {
	const latency = 50 * time.Millisecond
	slow := chaos.New(chaos.Config{Seed: 1, Latency: chaos.Dist{Kind: chaos.DistFixed, Base: latency}})
	master, _ := startReduceCluster(t, MasterConfig{Reducers: 2, Trace: true, Chaos: slow}, 2)
	lines := testLines(t, 400)
	before := readFetchCounts()
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runShard(wordCountJob(), lines, new(shardScratch))) {
		t.Fatal("output diverged from the reference")
	}
	if d := readFetchCounts().since(before); stats.ShuffleBytes != 0 || d.ok != 0 || d.failed != 0 {
		t.Errorf("ShuffleBytes %d, fetches ok/failed %v/%v; want everything read from the reducers' own stores", stats.ShuffleBytes, d.ok, d.failed)
	}
	// A reducer told by the master would wait at least the mapdone's read
	// and the location's write, two latencies.
	if b := master.LastTrace().Breakdown(stats); b.Await >= latency.Seconds() {
		t.Errorf("reducers awaited %v in all; want under one master latency, %v", time.Duration(b.Await*float64(time.Second)), latency)
	}
}

// TestCarriedLaunchLostInMapPart: a worker that dies in the map part of a
// batch carrying a reduce launch costs its map shards a retry each, but
// the reduce launch never started: its partition is requeued free of
// charge and wins at attempt 0, and the output is the oracle's.
func TestCarriedLaunchLostInMapPart(t *testing.T) {
	master, addr := startReduceCluster(t, MasterConfig{Reducers: 2, Trace: true, RetryBaseDelay: time.Millisecond}, 1)
	rogueServe(t, addr, "dies-mapping", func(w *Worker, c *conn, m message) (bool, bool) {
		if m.Type != "taskbatch" {
			return false, true
		}
		w.Stop()
		_ = c.close()
		return true, false
	})
	waitIdle(t, master, 2)
	lines := testLines(t, 400)
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runShard(wordCountJob(), lines, new(shardScratch))) {
		t.Fatal("output diverged from the reference")
	}
	// Eight small shards on two workers: four a batch, each batch carrying
	// a reduce task.
	if stats.Reassignments != 4 {
		t.Errorf("Reassignments %d; want 4, the lost batch's shards, and none for its reduce launch", stats.Reassignments)
	}
	cancelled := 0
	for _, sp := range master.LastTrace().Spans() {
		if sp.Phase != "rtask" {
			continue
		}
		switch {
		case sp.Outcome == outcomeCancelled:
			cancelled++
		case sp.Outcome == outcomeOK && sp.Stage != 0:
			t.Errorf("reduce partition %d won at attempt %d; want 0, nothing charged", sp.Task, sp.Stage)
		case sp.Outcome == outcomeFailed:
			t.Errorf("reduce partition %d has a failed launch; the lost one never started", sp.Task)
		}
	}
	if cancelled == 0 {
		t.Error("no reduce launch closed cancelled: the lost worker's carried launch is missing")
	}
}

// TestStraggledBatchSparesItsPartition: with one of two workers slow, the
// reduce launch its map batch carries does not hold its partition:
// speculation clones the batch's shards onto the other worker, and once
// their outputs pass the barrier the partition is queued there too, so
// the run ends long before the slow batch would have.
func TestStraggledBatchSparesItsPartition(t *testing.T) {
	const slow = time.Second
	master, addr := startReduceCluster(t, MasterConfig{Reducers: 2, SpeculationInterval: 5 * time.Millisecond}, 1)
	release := make(chan struct{})
	rogueServe(t, addr, "straggler", func(_ *Worker, _ *conn, m message) (bool, bool) {
		if m.Type == "taskbatch" {
			select {
			case <-release:
			case <-time.After(slow):
			}
		}
		return false, true
	})
	t.Cleanup(func() { close(release) })
	waitIdle(t, master, 2)
	lines := testLines(t, 400)
	start := time.Now()
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, 8)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runShard(wordCountJob(), lines, new(shardScratch))) {
		t.Fatal("output diverged from the reference")
	}
	if wall > slow/2 {
		t.Errorf("run took %v with a batch straggling for %v; want well under it (speculations %d, wins %d)", wall, slow, stats.Speculations, stats.SpecWins)
	}
}
