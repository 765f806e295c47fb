package netmr

import (
	"context"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"ipso/internal/chaos"
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

	if err := p.withConn(addr, time.Second, exchange); err != nil {
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
	if err := p.withConn(addr, time.Second, exchange); err != nil {
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
	err := p.withConn(addr, time.Second, func(c *conn) error {
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
	err := p.withConn(addr, time.Second, func(c *conn) error {
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
	got, stats, err := master.Run(context.Background(), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	return got, stats, master.LastTrace()
}

// TestParallelGatherMatchesSerial is the gather equivalence property:
// across every fanout (1 gathers serially), spill budget and combiner
// setting, the parallel gather must produce exactly the serial
// reference — responses arrive in arbitrary completion order, but the
// fold consumes them in ascending map-task order, so width must never
// show in the output.
func TestParallelGatherMatchesSerial(t *testing.T) {
	lines := testLines(t, 600)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	for _, combine := range []bool{false, true} {
		reg := pipelineRegistry(t, combine, 0)
		var ref map[string]float64
		for _, budget := range []int64{0, 2048} {
			for _, fanout := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("combine=%v/budget=%d/fanout=%d", combine, budget, fanout)
				got, _, _ := runPipelineCluster(t, reg,
					MasterConfig{TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: 3},
					WorkerConfig{ShuffleFanout: fanout, SpillBudget: budget, SpillDir: t.TempDir()},
					3, 6, lines, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: diverged from the single-shard reference", name)
				}
				if ref == nil {
					ref = got
				} else if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s: diverged from the fanout-1 run", name)
				}
			}
		}
	}
}

// TestEarlyShuffleMatchesBarrier runs the same job with and without
// early reduce dispatch: the outputs must be identical, the early run
// must actually launch reducers before the barrier, and the trace
// invariant MaxTask + MaxReduce + Ws + Wo = TotalWall must survive
// launches whose wall spans the map tail.
func TestEarlyShuffleMatchesBarrier(t *testing.T) {
	lines := testLines(t, 300)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	// A per-map delay leaves a tail: workers drain the map queue, go
	// idle, and the master has stored outputs to hand an early reducer.
	reg := pipelineRegistry(t, false, 20*time.Millisecond)
	run := func(early bool) (map[string]float64, Stats, *JobTrace) {
		return runPipelineCluster(t, reg, MasterConfig{
			TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second,
			Reducers: 3, Trace: true, EarlyShuffle: early,
		}, WorkerConfig{}, 3, 7, lines, nil)
	}
	gotB, statsB, _ := run(false)
	gotE, statsE, trcE := run(true)
	if !reflect.DeepEqual(gotB, want) {
		t.Fatal("barrier run diverged from reference")
	}
	if !reflect.DeepEqual(gotE, gotB) {
		t.Fatal("early-shuffle run diverged from the barrier run")
	}
	if statsB.EarlyReduceTasks != 0 {
		t.Errorf("barrier run launched %d early reduce tasks, want 0", statsB.EarlyReduceTasks)
	}
	if statsE.EarlyReduceTasks == 0 {
		t.Error("early run launched no reduce task before the barrier")
	}
	if statsE.ReduceTasks != 3 {
		t.Errorf("ReduceTasks = %d, want 3", statsE.ReduceTasks)
	}
	if trcE == nil {
		t.Fatal("early run produced no trace")
	}
	if trcE.OpenLaunches() != 0 {
		t.Fatalf("early run left %d launches open", trcE.OpenLaunches())
	}
	b := trcE.Breakdown(statsE)
	if b.TotalWall <= 0 || b.Wo < 0 || b.Ws < 0 || b.MaxReduce < 0 {
		t.Fatalf("inconsistent breakdown: %+v", b)
	}
	if sum := b.MaxTask + b.MaxReduce + b.Ws + b.Wo; math.Abs(sum-b.TotalWall) > 1e-6 {
		t.Fatalf("invariant broken under early shuffle: MaxTask+MaxReduce+Ws+Wo = %v, TotalWall = %v", sum, b.TotalWall)
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
		MasterConfig{TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: 3},
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

// TestEarlyShuffleFailoverUnderChaos combines the two: early dispatch
// on, one listener cut after the first mapdone — morelocs streaming,
// replica failover and the barrier-free path must still converge on the
// reference output.
func TestEarlyShuffleFailoverUnderChaos(t *testing.T) {
	lines := testLines(t, 400)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	reg := pipelineRegistry(t, true, 10*time.Millisecond)
	got, stats, _ := runPipelineCluster(t, reg, MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second,
		Reducers: 3, EarlyShuffle: true,
	}, WorkerConfig{SpillBudget: 4096, SpillDir: t.TempDir()}, 3, 6, lines,
		func(i int, w *Worker) {
			if i == 0 {
				w.closeFetchAfterMapdone = true
			}
		})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("early+chaos run diverged from reference")
	}
	if stats.ReduceTasks != 3 {
		t.Errorf("ReduceTasks = %d, want 3", stats.ReduceTasks)
	}
}
