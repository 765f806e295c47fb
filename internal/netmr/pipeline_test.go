package netmr

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ipso/internal/chaos"
	"ipso/internal/obs"
)

// shufflePingServer is a minimal shuffle-plane peer: it accepts
// connections and answers every ping with a pong, tracking the accepted sockets so a test can cut
// them mid-pool.
func shufflePingServer(t *testing.T) (addr string, cut func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, raw)
			mu.Unlock()
			go func(raw net.Conn) {
				c := newConn(raw)
				for {
					m, err := c.recv(0)
					if err != nil {
						return
					}
					if m.Type == "ping" {
						if c.send(message{Type: "pong"}, time.Second) != nil {
							return
						}
					}
				}
			}(raw)
		}
	}()
	return ln.Addr().String(), func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
		conns = conns[:0]
	}
}

// TestShufflePoolReusesAndRedialsOnce pins the pool's core contract: a
// healthy exchange returns its connection to the idle stack, and an
// exchange that fails over a pooled connection (staleness is invisible
// until use) is retried exactly once over a fresh dial.
func TestShufflePoolReusesAndRedialsOnce(t *testing.T) {
	addr, cut := shufflePingServer(t)
	p := newShufflePool(2)
	defer p.closeAll()

	attempts := 0
	exchange := func(c *conn) error {
		attempts++
		if err := c.send(message{Type: "ping"}, time.Second); err != nil {
			return err
		}
		m, err := c.recv(2 * time.Second)
		if err != nil {
			return err
		}
		if m.Type != "pong" {
			return fmt.Errorf("got %q, want pong", m.Type)
		}
		return nil
	}

	if err := p.withConn(addr, exchange); err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	if attempts != 1 {
		t.Fatalf("first exchange took %d attempts, want 1", attempts)
	}
	p.mu.Lock()
	idle := len(p.idle[addr])
	p.mu.Unlock()
	if idle != 1 {
		t.Fatalf("idle conns after success = %d, want 1 (connection must return to the pool)", idle)
	}

	// Cut the pooled connection server-side: staleness the client can
	// only discover on use. The next exchange must fail on the cached
	// conn, redial once, and succeed.
	cut()
	time.Sleep(20 * time.Millisecond)
	attempts = 0
	if err := p.withConn(addr, exchange); err != nil {
		t.Fatalf("exchange over a cut pool: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("stale-conn exchange took %d attempts, want 2 (pooled failure then one fresh dial)", attempts)
	}

	// A failure on the fresh connection is a real peer failure: exactly
	// one pooled attempt plus one dialed attempt, then the error
	// propagates.
	cut()
	time.Sleep(20 * time.Millisecond)
	attempts = 0
	err := p.withConn(addr, func(c *conn) error {
		attempts++
		return fmt.Errorf("injected failure %d", attempts)
	})
	if err == nil {
		t.Fatal("persistent failure did not propagate")
	}
	if attempts != 2 {
		t.Fatalf("persistent failure took %d attempts, want 2 (never more than one redial)", attempts)
	}
}

// TestShufflePoolKeepsConnOnRefusal: an application-level refusal (an
// error frame from a healthy peer) must not be treated as a connection
// failure — no redial, and the connection stays pooled.
func TestShufflePoolKeepsConnOnRefusal(t *testing.T) {
	addr, _ := shufflePingServer(t)
	p := newShufflePool(2)
	defer p.closeAll()

	attempts := 0
	err := p.withConn(addr, func(c *conn) error {
		attempts++
		return &peerRefusal{msg: "unknown run"}
	})
	if !isPeerRefusal(err) {
		t.Fatalf("refusal did not propagate as a refusal: %v", err)
	}
	if attempts != 1 {
		t.Fatalf("refusal triggered %d attempts, want 1 (no redial for a healthy peer)", attempts)
	}
	p.mu.Lock()
	idle := len(p.idle[addr])
	p.mu.Unlock()
	if idle != 1 {
		t.Fatalf("idle conns after refusal = %d, want 1 (refused connection must stay pooled)", idle)
	}
}

// pipelineRegistry builds a single-job registry for the wordcount job,
// optionally with a combiner, optionally with a per-map-task delay that
// manufactures the map tail early shuffle hides fetches under.
func pipelineRegistry(t testing.TB, combine bool, mapDelay time.Duration) *Registry {
	j := wordCountJob()
	if combine {
		j.Combine = func(acc, v float64) float64 { return acc + v }
	}
	if mapDelay > 0 {
		inner := j.Map
		j.Map = func(record string, emit func(string, float64)) {
			time.Sleep(mapDelay)
			inner(record, emit)
		}
	}
	r, err := NewRegistry(j)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runPipelineCluster boots a master plus workers built from the given
// configs, runs one wordcount, and tears everything down.
func runPipelineCluster(t *testing.T, reg *Registry, mcfg MasterConfig, wcfg WorkerConfig, workers, shards int, lines []string, mutate func(i int, w *Worker)) (map[string]float64, Stats, *JobTrace) {
	t.Helper()
	master, err := NewMaster(reg, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	stops := make([]func(), 0, workers)
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < workers; i++ {
		w, err := NewWorker(reg, WithWorkerConfig(wcfg))
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(i, w)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		stops = append(stops, w.Stop)
	}
	if err := master.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	return got, stats, master.LastTrace()
}

// TestParallelGatherMatchesSerial is the gather equivalence property:
// at every spill budget and combiner setting, the parallel gather must
// produce exactly the serial single-shard reference — responses arrive
// in arbitrary completion order, but the fold consumes them in ascending
// map-task order, so the gather's width must never show in the output.
func TestParallelGatherMatchesSerial(t *testing.T) {
	lines := testLines(t, 600)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	for _, combine := range []bool{false, true} {
		reg := pipelineRegistry(t, combine, 0)
		for _, budget := range []int64{0, 2048} {
			got, _, _ := runPipelineCluster(t, reg,
				MasterConfig{Reducers: 3},
				WorkerConfig{SpillBudget: budget, SpillDir: t.TempDir()},
				3, 6, lines, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("combine=%v/budget=%d: diverged from the single-shard reference", combine, budget)
			}
		}
	}
}

// TestReduceUnderMapTailMatchesOracle: reduce tasks launch under the
// map tail — more task frames than workers, each map slow — and the
// output equals the oracle; the trace invariant MaxTask + MaxReduce + Ws
// + Wo = TotalWall must survive launches whose wall spans the map tail.
func TestReduceUnderMapTailMatchesOracle(t *testing.T) {
	lines := testLines(t, 300)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	// A per-map delay leaves a tail: workers drain the map queue, go
	// idle, and the master has stored outputs to hand a reducer.
	reg := pipelineRegistry(t, false, 20*time.Millisecond)
	got, stats, trc := runPipelineCluster(t, reg, MasterConfig{
		Reducers: 3, Trace: true,
	}, WorkerConfig{}, 3, 7, lines, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("run diverged from reference")
	}
	if stats.EarlyReduceTasks == 0 {
		t.Error("no reduce task launched before the barrier")
	}
	if stats.ReduceTasks != 3 {
		t.Errorf("ReduceTasks = %d, want 3", stats.ReduceTasks)
	}
	if trc == nil {
		t.Fatal("run produced no trace")
	}
	if trc.OpenLaunches() != 0 {
		t.Fatalf("run left %d launches open", trc.OpenLaunches())
	}
	b := trc.Breakdown(stats)
	if b.TotalWall <= 0 || b.Wo < 0 || b.Ws < 0 || b.MaxReduce < 0 {
		t.Fatalf("inconsistent breakdown: %+v", b)
	}
	if sum := b.MaxTask + b.MaxReduce + b.Ws + b.Wo; math.Abs(sum-b.TotalWall) > 1e-6 {
		t.Fatalf("invariant broken under the map tail: MaxTask+MaxReduce+Ws+Wo = %v, TotalWall = %v", sum, b.TotalWall)
	}
}

// TestPooledFetchFailsOverToReplica is the failover chaos scenario: one
// mapper's shuffle listener dies after its first mapdone while the
// worker itself stays alive, so the master keeps routing fetches at the
// dead listener. Reducers on the other workers must reroute to the
// replica addresses carried on their reducetask frames — without a
// master round-trip — and the job must finish byte-identically.
//
// Every task takes 20 ms, so each worker holds its task while the master
// hands the next one out: the first map wave reaches all three workers
// (worker 0 maps a shard) and the three reduce tasks land on three
// workers, one of them worker 0's ring predecessor, which holds neither
// worker 0's output nor its replica and must fetch it from the dead
// listener. Without the delay one worker could take every reduce task,
// or worker 0 no map task, and no fetch would fail over.
func TestPooledFetchFailsOverToReplica(t *testing.T) {
	lines := testLines(t, 500)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	reg := pipelineRegistry(t, false, 0)
	got, stats, _ := runPipelineCluster(t, reg,
		MasterConfig{Reducers: 3},
		WorkerConfig{}, 3, 6, lines,
		func(i int, w *Worker) {
			w.chaos = chaos.New(chaos.Config{Seed: int64(i), TaskLatency: chaos.Dist{Kind: chaos.DistFixed, Base: 20 * time.Millisecond}})
			if i == 0 {
				w.closeFetchAfterMapdone = true
			}
		})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("failover run diverged from reference")
	}
	if stats.Failovers == 0 {
		t.Errorf("Failovers = 0, want > 0 (reducers must have rerouted to replicas locally); stats %+v", stats)
	}
	if stats.Completed == 0 || stats.ReduceTasks != 3 {
		t.Errorf("unexpected stats: %+v", stats)
	}
}

// TestReduceUnderMapTailFailoverUnderChaos combines the two: reduce
// tasks under the map tail, one listener cut after the first mapdone —
// morelocs streaming and replica failover must still converge on the
// reference output.
func TestReduceUnderMapTailFailoverUnderChaos(t *testing.T) {
	lines := testLines(t, 400)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	reg := pipelineRegistry(t, true, 10*time.Millisecond)
	got, stats, _ := runPipelineCluster(t, reg, MasterConfig{Reducers: 3}, WorkerConfig{SpillBudget: 4096, SpillDir: t.TempDir()}, 3, 6, lines,
		func(i int, w *Worker) {
			if i == 0 {
				w.closeFetchAfterMapdone = true
			}
		})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("chaos run diverged from reference")
	}
	if stats.ReduceTasks != 3 {
		t.Errorf("ReduceTasks = %d, want 3", stats.ReduceTasks)
	}
}

// TestMapRetryCallsBackReduceLaunch is the call-back rule: two workers,
// two reduce tasks, every task attempt 50 ms late (the per-map delay),
// and the first attempt of shard 1 crashes its worker after the frame's
// shard 0 answered. By then the other worker has mapped shard 2 and holds
// a reduce launch waiting on shard 1, so the retry finds no idle worker:
// the loop must call that launch back, or the run would sit until its
// ctx's deadline. The output is the oracle's, and no goroutine, descriptor
// or spill file outlives the run.
func TestMapRetryCallsBackReduceLaunch(t *testing.T) {
	plan := chaos.Config{CrashRate: 0.1, TaskLatency: chaos.Dist{Kind: chaos.DistFixed, Base: 50 * time.Millisecond}}
	// Of every attempt the run can make, shard 1's first alone crashes.
	onlyShard1Crashes := func(seed int64) bool {
		cfg := plan
		cfg.Seed, cfg.Metrics = seed, obs.NewRegistry()
		in := chaos.New(cfg)
		for attempt := 0; attempt < 3; attempt++ {
			for task := 0; task < 3; task++ {
				if in.TaskFault("task", task, attempt).Crash != (task == 1 && attempt == 0) {
					return false
				}
			}
			for p := 0; p < 2; p++ {
				if in.TaskFault("reduce", p, attempt).Crash {
					return false
				}
			}
		}
		return true
	}
	for plan.Seed = 1; !onlyShard1Crashes(plan.Seed); plan.Seed++ {
	}

	goroutines, fds := runtime.NumGoroutine(), openFDs()
	master, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*Worker, 2)
	dirs := make([]string, 2)
	for i := range workers {
		dirs[i] = t.TempDir()
		w, err := NewWorker(mustRegistry(t), WithChaos(chaos.New(plan)), WithWorkerConfig(WorkerConfig{SpillBudget: 1, SpillDir: dirs[i]}))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	waitIdle(t, master, 2)

	lines := testLines(t, 60)
	start := time.Now()
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("the run took %v: a map retry waited on reduce launches", wall)
	}
	if !reflect.DeepEqual(got, runShard(wordCountJob(), lines, new(shardScratch))) {
		t.Fatal("output diverged from the oracle")
	}
	if stats.EarlyAborts < 1 {
		t.Errorf("EarlyAborts = %d: the map retry called no reduce launch back (stats %+v)", stats.EarlyAborts, stats)
	}
	if stats.ReduceTasks != 2 {
		t.Errorf("ReduceTasks = %d, want 2", stats.ReduceTasks)
	}
	// The survivor frees the run when the release lands; the crashed
	// worker's store goes with it.
	for i, w := range workers {
		select {
		case <-w.done:
			continue // crashed
		default:
		}
		for deadline := time.Now().Add(5 * time.Second); len(heldTasks(w)) > 0 || spillFilesLeft(t, dirs[i]) > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the survivor still holds %d task(s) and %d spill file(s) after the run", len(heldTasks(w)), spillFilesLeft(t, dirs[i]))
			}
		}
	}
	master.Close()
	for i, w := range workers {
		w.Stop()
		if n := spillFilesLeft(t, dirs[i]); n != 0 {
			t.Errorf("worker %d left %d spill file(s)", i, n)
		}
	}
	settled(t, goroutines, fds)
}
