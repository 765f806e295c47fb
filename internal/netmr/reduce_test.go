package netmr

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ipso/internal/trace"
)

// startReduceCluster boots a master with the given config and n workers,
// returning the master and its address.
func startReduceCluster(t *testing.T, cfg MasterConfig, n int) (*Master, string) {
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
	for i := 0; i < n; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if n > 0 {
		if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return master, addr
}

// TestInterStoreSliceRejectsRogue pins the serving side's input
// validation: a mismatched run, an out-of-range partition, and an
// unknown map task must all error (never panic), while an empty-but-held
// task answers with a nil partial that still acknowledges the task.
func TestInterStoreSliceRejectsRogue(t *testing.T) {
	s := newInterStore()
	s.setReducers(2)
	s.put("wc#1", 0, []partitionPartial{
		{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1})},
		{ID: 1, Partial: sectionFromMap(map[string]float64{"b": 2})},
	}, 2)
	s.put("wc#1", 3, []partitionPartial{{ID: 1, Partial: sectionFromMap(map[string]float64{"c": 3})}}, 2)

	if _, _, err := s.slice("other#9", 0, []int{0}, false); err == nil {
		t.Error("foreign run id accepted")
	}
	if _, _, err := s.slice("", 0, []int{0}, false); err == nil {
		t.Error("empty run id accepted")
	}
	for _, p := range []int{-1, 2, 99} {
		if _, _, err := s.slice("wc#1", p, []int{0}, false); err == nil {
			t.Errorf("out-of-range partition %d accepted", p)
		}
	}
	if _, _, err := s.slice("wc#1", 0, []int{7}, false); err == nil {
		t.Error("unknown map task accepted")
	}
	// Task 3 emitted nothing into partition 0: held, so acknowledged with
	// a nil partial rather than refused.
	got, _, err := s.slice("wc#1", 0, []int{0, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []partitionPartial{
		{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1})},
		{ID: 3, Partial: ""},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slice = %+v, want %+v", got, want)
	}
	// A new run evicts the old one.
	s.put("wc#2", 0, []partitionPartial{{ID: 0, Partial: sectionFromMap(map[string]float64{"z": 1})}}, 2)
	if _, _, err := s.slice("wc#1", 0, []int{0}, false); err == nil {
		t.Error("evicted run still served")
	}
	if _, _, err := s.slice("wc#2", 0, []int{3}, false); err == nil {
		t.Error("evicted task still acknowledged")
	}
}

// TestDistributedReduce is the tentpole e2e: with 4 workers and reduce
// enabled, every map output stays worker-side, the R partitions are
// folded by workers (the master executes no per-key fold — its merge is
// only the union of R disjoint key spaces), intermediate bytes flow
// worker→worker, and the JobTrace attributes the reduce wall to
// distributed rtask launches.
func TestDistributedReduce(t *testing.T) {
	const workers, shards, R = 4, 8, 4
	master, _ := startReduceCluster(t, MasterConfig{
		Reducers: R, Trace: true,
	}, workers)

	lines := testLines(t, 600)
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, new(shardScratch))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("distributed-reduce result diverged from reference")
	}

	if stats.Reducers != R {
		t.Errorf("Reducers = %d, want %d", stats.Reducers, R)
	}
	if stats.ReduceTasks != R {
		t.Errorf("ReduceTasks = %d, want %d", stats.ReduceTasks, R)
	}
	// Every winning map output persisted worker-side, so the master never
	// held a single intermediate key.
	if stats.MapOutputsStored != shards {
		t.Errorf("MapOutputsStored = %d, want %d", stats.MapOutputsStored, shards)
	}
	if stats.ShuffleBytes <= 0 {
		t.Errorf("ShuffleBytes = %d, want > 0 (reducers must fetch from peers)", stats.ShuffleBytes)
	}
	if stats.ReduceWall <= 0 {
		t.Errorf("ReduceWall = %v, want > 0", stats.ReduceWall)
	}

	trc := master.LastTrace()
	if trc == nil {
		t.Fatal("traced run produced no trace")
	}
	var rtaskOK, reducePhases int
	for _, sp := range trc.Spans() {
		if sp.Phase == "rtask" && sp.Outcome == outcomeOK {
			rtaskOK++
		}
		if sp.Launch < 0 && sp.Phase == "reduce" {
			reducePhases++
		}
	}
	if rtaskOK != R {
		t.Errorf("winning rtask launches = %d, want %d", rtaskOK, R)
	}
	if reducePhases != 1 {
		t.Errorf("master-level reduce phases = %d, want 1", reducePhases)
	}
	b := trc.Breakdown(stats)
	if b.Reduce <= 0 || b.MaxReduce <= 0 {
		t.Errorf("breakdown attributes no worker-side fold: Reduce=%g MaxReduce=%g", b.Reduce, b.MaxReduce)
	}
	// The headline invariant: MaxTask + MaxReduce + Ws + Wo = TotalWall
	// (Wo is clamped at zero, so allow that degenerate case).
	if sum := b.MaxTask + b.MaxReduce + b.Ws + b.Wo; b.Wo > 0 && math.Abs(sum-b.TotalWall) > 1e-6 {
		t.Errorf("MaxTask+MaxReduce+Ws+Wo = %g, want TotalWall %g", sum, b.TotalWall)
	}
}

// TestReduceMatchesReferenceAcrossConfigs: the reducer count is a pure
// performance knob — serial merge, engine merge and distributed reduce
// at several R must produce byte-identical results, for both the Combine
// and the group-then-Reduce fold paths.
func TestReduceMatchesReferenceAcrossConfigs(t *testing.T) {
	lines := testLines(t, 400)
	want := runShard(wordCountJob(), lines, new(shardScratch))

	for _, r := range []int{1, 2, 4, 8} {
		master, _ := startReduceCluster(t, MasterConfig{Reducers: r}, 3)
		got, stats, err := master.Run(runCtx(t), "wordcount", lines, 6)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("R=%d: result diverged from reference", r)
		}
		if stats.ReduceTasks != r {
			t.Errorf("R=%d: ReduceTasks = %d", r, stats.ReduceTasks)
		}
	}
}

// TestRogueFetchRejected is the rogue-worker regression for the shuffle
// path: out-of-range partition ids, foreign run ids and unknown tasks
// sent to a worker's fetch listener must be answered with error frames —
// without panicking the serving worker or poisoning its connection for
// subsequent valid fetches.
func TestRogueFetchRejected(t *testing.T) {
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
	w.store.put("wc#1", 0, []partitionPartial{
		{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1})},
		{ID: 1, Partial: sectionFromMap(map[string]float64{"b": 2})},
	}, 2)

	if _, _, err := fetchPartition(addr, "wc#1", 99, []int{0}); err == nil {
		t.Error("out-of-range partition id served")
	}
	if _, _, err := fetchPartition(addr, "evil#7", 0, []int{0}); err == nil {
		t.Error("foreign job's run id served")
	}
	if _, _, err := fetchPartition(addr, "wc#1", 0, []int{5}); err == nil {
		t.Error("unknown map task served")
	}

	// One connection, rogue frames first, then a valid fetch: the server
	// must keep serving rather than hang up on the first bad request.
	c, err := dialShuffle(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.close() }()
	if err := c.send(message{Type: "ping"}, exchangeTimeout); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.recv(exchangeTimeout); err != nil || reply.Type != "error" {
		t.Fatalf("non-fetch frame got (%+v, %v), want an error frame", reply, err)
	}
	if err := c.send(message{Type: "fetch", Run: "wc#1", TaskID: -1, Tasks: []int{0}}, exchangeTimeout); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.recv(exchangeTimeout); err != nil || reply.Type != "error" {
		t.Fatalf("negative partition got (%+v, %v), want an error frame", reply, err)
	}
	if err := c.send(message{Type: "fetch", Run: "wc#1", TaskID: 1, Tasks: []int{0}}, exchangeTimeout); err != nil {
		t.Fatal(err)
	}
	reply, err := c.recv(exchangeTimeout)
	if err != nil || reply.Type != "fetchresult" {
		t.Fatalf("valid fetch after rogues got (%+v, %v), want fetchresult", reply, err)
	}
	want := []partitionPartial{{ID: 0, Partial: sectionFromMap(map[string]float64{"b": 2})}}
	if !reflect.DeepEqual(reply.Parts, want) {
		t.Fatalf("fetchresult parts = %+v, want %+v", reply.Parts, want)
	}
}

// TestRogueReduceErrorReassigned: a reducer answering its reduce task
// with an error frame is dropped and the partition retried on an honest
// worker; the job completes with the reference result.
func TestRogueReduceErrorReassigned(t *testing.T) {
	master, addr := startReduceCluster(t, MasterConfig{Reducers: 4}, 2)
	// Honest map tasks, every reduce task answered with an error frame: the
	// misbehaving-reducer shape the master must answer with an eviction and
	// a reassignment, never a hang or a panic.
	rogueWorker(t, addr, "rogue-reducer", func(m message) (message, bool) {
		return message{Type: "error", TaskID: m.TaskID, Message: "rogue: reduce refused"}, m.Type == "reducetask"
	})
	waitIdle(t, master, 3) // so the rogue is drawn for one of the four reduce tasks

	lines := testLines(t, 300)
	got, stats, err := master.Run(runCtx(t), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, new(shardScratch))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("result diverged from reference after rogue reducer eviction")
	}
	if stats.ReduceTasks != 4 {
		t.Errorf("ReduceTasks = %d, want 4", stats.ReduceTasks)
	}
	if stats.Reassignments == 0 {
		t.Error("rogue reducer's error frame caused no reassignment")
	}
}

// TestMalformedReduceResultRefused: a reduce result whose Folded keys
// are out of order or repeated passes the frame checksum, but the decode
// takes it as a section and refuses it: the launch fails like any other
// bad reply, the partition is retried on an honest worker, and the output
// is the reference.
func TestMalformedReduceResultRefused(t *testing.T) {
	pair := func(k string, v float64) []byte {
		return binary.LittleEndian.AppendUint64(appendString(nil, k), math.Float64bits(v))
	}
	for name, bad := range map[string][]byte{
		"unsorted":  append(append([]byte{2}, pair("b", 1)...), pair("a", 1)...),
		"duplicate": append(append([]byte{2}, pair("a", 1)...), pair("a", 2)...),
	} {
		t.Run(name, func(t *testing.T) {
			var decoded message
			if err := decodeFrame(frameBody(t, encodeBinary(t, message{Type: "result", TaskID: 1, Folded: section(bad)})), &decoded); err == nil {
				t.Fatalf("decode accepted %s keys as %q", name, decoded.Folded)
			}

			master, addr := startReduceCluster(t, MasterConfig{Reducers: 4}, 2)
			// Honest map tasks, every reduce task answered with a well-framed,
			// checksummed result whose Folded no honest merge could have
			// produced.
			rogueWorker(t, addr, "malformed-reducer", func(m message) (message, bool) {
				return message{Type: "result", TaskID: m.TaskID, Attempt: m.Attempt, Folded: section(bad)}, m.Type == "reducetask"
			})
			waitIdle(t, master, 3) // so the rogue is drawn for one of the four reduce tasks
			lines := testLines(t, 300)
			res, stats, err := master.RunResult(runCtx(t), "wordcount", lines, 6)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, runShard(wordCountJob(), lines, new(shardScratch)))
			if stats.ReduceTasks != 4 {
				t.Errorf("ReduceTasks = %d, want 4", stats.ReduceTasks)
			}
			if stats.Reassignments == 0 {
				t.Error("the malformed reduce result caused no reassignment")
			}
		})
	}
}

// TestReduceRetryBudgetExhausted: a reducer that answers every reduce
// task with a fetch failure naming a holder that does not exist stays in
// the pool (the holder is blamed, not the reducer), so the one partition
// burns its whole MaxAttempts budget on it; the error must name the
// partition and the attempt count and carry the reducer's last message.
func TestReduceRetryBudgetExhausted(t *testing.T) {
	master, addr := startReduceCluster(t, MasterConfig{
		Reducers: 1, MaxAttempts: 3, RetryBaseDelay: time.Millisecond,
	}, 0)
	const refusal = "rogue: holder unreachable"
	rogueWorker(t, addr, "bogus-holder", func(m message) (message, bool) {
		return message{Type: "error", TaskID: m.TaskID, Fetch: "127.0.0.1:1", Message: refusal}, m.Type == "reducetask"
	})
	if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	_, stats, err := master.Run(runCtx(t), "wordcount", testLines(t, 100), 2)
	if err == nil {
		t.Fatal("expected the reduce retry budget to run out, got success")
	}
	if !strings.Contains(err.Error(), "reduce partition 0 failed 3 times") {
		t.Fatalf("error does not name the partition and attempt count: %v", err)
	}
	if !strings.Contains(err.Error(), refusal) {
		t.Fatalf("error does not carry the reducer's last message: %v", err)
	}
	if stats.Reassignments != 2 {
		t.Fatalf("Reassignments = %d, want 2 (three launches, two requeues)", stats.Reassignments)
	}
}

// TestFetchReportExilesForOneRun: a reducer's report that a fetch from a
// healthy holder failed routes the rest of that run around the holder,
// and only that run. The holder's worker keeps taking tasks, so the next
// run on the same master fetches its outputs from it again: no replica
// fetch, no recovery.
func TestFetchReportExilesForOneRun(t *testing.T) {
	master, addr := startReduceCluster(t, MasterConfig{Reducers: 4}, 0)
	holder, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(holder.Stop)
	// The rogue accuses the holder once, from its first reduce launch, and
	// serves everything else as a worker.
	var reported atomic.Bool
	rogueServe(t, addr, "accuser", func(_ *Worker, c *conn, m message) (bool, bool) {
		if m.Type != "reducetask" || reported.Swap(true) {
			return false, true
		}
		return true, c.send(message{Type: "error", TaskID: m.TaskID, Fetch: holder.fetchAddr, Message: "rogue: fetch failed"}, 5*time.Second) == nil
	})
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lines := testLines(t, 400)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	run := func() Stats {
		t.Helper()
		got, stats, err := master.Run(runCtx(t), "wordcount", lines, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("output diverged from the single-shard reference")
		}
		return stats
	}
	for i := 0; !reported.Load(); i++ {
		if i == 5 {
			t.Fatal("fixture: no reduce launch reached the rogue in 5 runs")
		}
		if stats := run(); reported.Load() && stats.ReplicaFetches == 0 {
			t.Fatal("the run that heard the report fetched nothing from a replica: it did not route around the holder")
		}
	}
	if stats := run(); stats.ReplicaFetches != 0 || stats.RecoveryWall != 0 {
		t.Fatalf("the next run still routes around the healthy holder: ReplicaFetches = %d, RecoveryWall = %v", stats.ReplicaFetches, stats.RecoveryWall)
	}
}

// TestReduceCancellationAbandonsLaunch: cancelling the job while a reduce
// task is in flight returns context.Canceled without waiting for the
// reducer's reply, counts the abandoned reduce launch, and leaves no
// launch open in the trace.
func TestReduceCancellationAbandonsLaunch(t *testing.T) {
	master, addr := startReduceCluster(t, MasterConfig{
		Reducers: 1, Trace: true,
	}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	rogueServe(t, addr, "slow-reducer", func(_ *Worker, c *conn, m message) (bool, bool) {
		if m.Type != "reducetask" {
			return false, true
		}
		// The launch rides with the map batch: once the master has taken
		// every map output, the reduce phase is under way: cancel, then
		// sleep well past it.
		awaitBarrier(t, master)
		cancel()
		select {
		case <-release:
		case <-time.After(5 * time.Second):
		}
		return true, c.send(message{Type: "error", TaskID: m.TaskID, Message: "rogue: too late"}, 5*time.Second) == nil
	})
	t.Cleanup(func() { close(release) })
	if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, stats, err := master.Run(ctx, "wordcount", testLines(t, 100), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("Run took %v after cancellation; it waited for the reducer", wall)
	}
	if stats.Cancellations != 1 {
		t.Fatalf("Cancellations = %d, want 1 (the reduce launch)", stats.Cancellations)
	}
	var buf bytes.Buffer
	if err := master.LastTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var sp trace.Event
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatal(err)
		}
		if sp.Phase != "task" && sp.Phase != "rtask" {
			continue
		}
		if sp.Outcome == "" {
			t.Fatalf("open launch in the trace: %s", line)
		}
		if sp.Phase == "rtask" && sp.Outcome == outcomeCancelled {
			cancelled++
		}
	}
	if cancelled != 1 {
		t.Fatalf("cancelled rtask launches = %d, want 1:\n%s", cancelled, buf.String())
	}
}
