package netmr

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// startReduceCluster boots a master with the given config and n current
// (fully capable) workers, returning the master and its address.
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

	if _, err := s.slice("other#9", 0, []int{0}); err == nil {
		t.Error("foreign run id accepted")
	}
	if _, err := s.slice("", 0, []int{0}); err == nil {
		t.Error("empty run id accepted")
	}
	for _, p := range []int{-1, 2, 99} {
		if _, err := s.slice("wc#1", p, []int{0}); err == nil {
			t.Errorf("out-of-range partition %d accepted", p)
		}
	}
	if _, err := s.slice("wc#1", 0, []int{7}); err == nil {
		t.Error("unknown map task accepted")
	}
	// Task 3 emitted nothing into partition 0: held, so acknowledged with
	// a nil partial rather than refused.
	got, err := s.slice("wc#1", 0, []int{0, 3})
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
	if _, err := s.slice("wc#1", 0, []int{0}); err == nil {
		t.Error("evicted run still served")
	}
	if _, err := s.slice("wc#2", 0, []int{3}); err == nil {
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
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second,
		Reducers: R, Trace: true,
	}, workers)

	lines := testLines(t, 600)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, newShardScratch())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("distributed-reduce result diverged from reference")
	}

	if stats.Reducers != R {
		t.Errorf("Reducers = %d, want %d", stats.Reducers, R)
	}
	if stats.ReduceTasks != R {
		t.Errorf("ReduceTasks = %d, want %d", stats.ReduceTasks, R)
	}
	// All-capable cluster: every winning map output persisted worker-side,
	// so the master never held a single intermediate key.
	if stats.MapOutputsStored != shards {
		t.Errorf("MapOutputsStored = %d, want %d", stats.MapOutputsStored, shards)
	}
	if stats.MapOutputsRelayed != 0 {
		t.Errorf("MapOutputsRelayed = %d, want 0", stats.MapOutputsRelayed)
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
	want := runShard(wordCountJob(), lines, newShardScratch())

	for _, r := range []int{1, 2, 4, 8} {
		master, _ := startReduceCluster(t, MasterConfig{
			TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, Reducers: r,
		}, 3)
		got, stats, err := master.Run(context.Background(), "wordcount", lines, 6)
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

// TestMixedClusterReduce runs reduce-capable, legacy-JSON and
// reduce-less binary workers side by side: persisted and relayed map
// outputs must merge into exactly the reference result.
func TestMixedClusterReduce(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, Reducers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)

	// Two current workers, one protocol-v1 JSON worker, one binary worker
	// that predates the reduce capability.
	for i := 0; i < 2; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	legacyJSONWorker(t, addr, wordCountJob())
	old, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	old.caps = []string{capBinary, capBinaryExt, capBatch, capPartition}
	if err := old.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(old.Stop)
	if err := master.WaitForWorkers(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 500)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, newShardScratch())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mixed-cluster reduce result diverged from reference")
	}
	if stats.MapOutputsStored == 0 {
		t.Error("no map output persisted worker-side despite reduce-capable workers")
	}
	if stats.MapOutputsRelayed == 0 {
		t.Error("no map output relayed despite v1/non-reduce workers in the pool")
	}
	if stats.ReduceTasks != 4 {
		t.Errorf("ReduceTasks = %d, want 4", stats.ReduceTasks)
	}
}

// TestReduceFallbackWithoutCapableWorkers: Reducers set but no worker
// offering the capability must fall back to the master-side merge
// transparently — correct output, zero reduce accounting.
func TestReduceFallbackWithoutCapableWorkers(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, Reducers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < 2; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		w.caps = []string{capBinary, capBinaryExt, capBatch, capPartition}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lines := testLines(t, 300)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, newShardScratch())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fallback result diverged from reference")
	}
	if stats.Reducers != 0 || stats.ReduceTasks != 0 || stats.MapOutputsStored != 0 || stats.ShuffleBytes != 0 {
		t.Errorf("fallback run carries reduce accounting: %+v", stats)
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

	if _, _, _, err := fetchPartition(addr, "wc#1", 99, []int{0}, defaultShuffleTimeout, false); err == nil {
		t.Error("out-of-range partition id served")
	}
	if _, _, _, err := fetchPartition(addr, "evil#7", 0, []int{0}, defaultShuffleTimeout, false); err == nil {
		t.Error("foreign job's run id served")
	}
	if _, _, _, err := fetchPartition(addr, "wc#1", 0, []int{5}, defaultShuffleTimeout, false); err == nil {
		t.Error("unknown map task served")
	}

	// One connection, rogue frames first, then a valid fetch: the server
	// must keep serving rather than hang up on the first bad request.
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	c.binary, c.binExt, c.red = true, true, true
	defer func() { _ = c.close() }()
	if err := c.send(message{Type: "ping"}, defaultShuffleTimeout); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.recv(defaultShuffleTimeout); err != nil || reply.Type != "error" {
		t.Fatalf("non-fetch frame got (%+v, %v), want an error frame", reply, err)
	}
	if err := c.send(message{Type: "fetch", Run: "wc#1", TaskID: -1, Tasks: []int{0}}, defaultShuffleTimeout); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.recv(defaultShuffleTimeout); err != nil || reply.Type != "error" {
		t.Fatalf("negative partition got (%+v, %v), want an error frame", reply, err)
	}
	if err := c.send(message{Type: "fetch", Run: "wc#1", TaskID: 1, Tasks: []int{0}}, defaultShuffleTimeout); err != nil {
		t.Fatal(err)
	}
	reply, err := c.recv(defaultShuffleTimeout)
	if err != nil || reply.Type != "fetchresult" {
		t.Fatalf("valid fetch after rogues got (%+v, %v), want fetchresult", reply, err)
	}
	want := []partitionPartial{{ID: 0, Partial: sectionFromMap(map[string]float64{"b": 2})}}
	if !reflect.DeepEqual(reply.Parts, want) {
		t.Fatalf("fetchresult parts = %+v, want %+v", reply.Parts, want)
	}
}

// reduceRogueJSONWorker joins as a reduce-capable JSON worker that
// answers map tasks honestly (flat results) but every reduce task with
// an error frame — the misbehaving-reducer shape the master must answer
// with an eviction and a reassignment, never a hang or a panic.
func reduceRogueJSONWorker(t *testing.T, addr string, job Job) {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = raw.Close() })
	enc := json.NewEncoder(raw)
	dec := json.NewDecoder(bufio.NewReader(raw))
	if err := enc.Encode(map[string]any{
		"type": "hello", "id": "rogue-reducer", "jobs": []string{job.Name},
		"caps": []string{capReduce}, "fetch": "127.0.0.1:1",
	}); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := newShardScratch()
		for {
			var m message
			if err := dec.Decode(&m); err != nil {
				return
			}
			switch m.Type {
			case "task":
				partial := runShard(job, m.Records, sc)
				if err := enc.Encode(map[string]any{
					"type": "result", "task_id": m.TaskID, "attempt": m.Attempt, "partial": partial,
				}); err != nil {
					return
				}
			case "reducetask":
				if err := enc.Encode(map[string]any{
					"type": "error", "task_id": m.TaskID, "message": "rogue: reduce refused",
				}); err != nil {
					return
				}
			case "ping":
				if err := enc.Encode(map[string]any{"type": "pong"}); err != nil {
					return
				}
			}
		}
	}()
}

// TestRogueReduceErrorReassigned: a reducer answering its reduce task
// with an error frame is dropped and the partition retried on an honest
// worker; the job completes with the reference result.
func TestRogueReduceErrorReassigned(t *testing.T) {
	master, addr := startReduceCluster(t, MasterConfig{
		TaskTimeout: 5 * time.Second, JobTimeout: 30 * time.Second, Reducers: 4,
	}, 2)
	reduceRogueJSONWorker(t, addr, wordCountJob())
	if err := master.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 300)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, newShardScratch())
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

// malformedReducer joins as a binary reduce-capable worker that answers
// map tasks honestly (flat results, relayed by the master) and every
// reduce task with a well-framed, checksummed result whose Partial is
// badPartial — bytes no honest merge could have produced.
func malformedReducer(t *testing.T, addr string, job Job, badPartial []byte) {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = raw.Close() })
	c := newConn(raw)
	hello := message{Type: "hello", ID: "malformed-reducer", Jobs: []string{job.Name},
		Caps: []string{capBinary, capBinaryExt, capReduce}, Fetch: "127.0.0.1:1"}
	if err := c.send(hello, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.recv(5 * time.Second); err != nil || ack.Type != "helloack" {
		t.Fatalf("helloack: %+v, %v", ack, err)
	}
	c.binary, c.binExt, c.red = true, true, true
	go func() {
		sc := newShardScratch()
		for {
			m, err := c.recv(0)
			if err != nil {
				return
			}
			var reply message
			switch m.Type {
			case "task":
				reply = message{Type: "result", TaskID: m.TaskID, Attempt: m.Attempt, Partial: runShard(job, m.Records, sc)}
			case "reducetask":
				reply = message{Type: "result", TaskID: m.TaskID, Attempt: m.Attempt, partialSec: badPartial}
			case "ping":
				reply = message{Type: "pong"}
			default:
				continue
			}
			if c.send(reply, 5*time.Second) != nil {
				return
			}
		}
	}()
}

// TestMalformedReduceResultRefused: a reduce result whose Partial keys
// are out of order or repeated passes the frame checksum and the map
// decode (where a repeat silently overwrites), but the master's
// reduce-phase receive takes it as a section and refuses it: the launch
// fails like any other bad reply, the partition is retried on an honest
// worker, and the output is the reference.
func TestMalformedReduceResultRefused(t *testing.T) {
	pair := func(k string, v float64) []byte {
		return binary.LittleEndian.AppendUint64(appendString(nil, k), math.Float64bits(v))
	}
	for name, bad := range map[string][]byte{
		"unsorted":  append(append([]byte{2}, pair("b", 1)...), pair("a", 1)...),
		"duplicate": append(append([]byte{2}, pair("a", 1)...), pair("a", 2)...),
	} {
		t.Run(name, func(t *testing.T) {
			m := message{Type: "result", TaskID: 1, partialSec: bad}
			frame, _, err := appendFrame(nil, &m, nil, true, false, true, false, false)
			if err != nil {
				t.Fatal(err)
			}
			var asMap message
			if err := decodeFrame(frameBody(t, frame), &asMap, true, false, true, false, false, nil); err != nil || len(asMap.Partial) == 0 {
				t.Fatalf("map decode = %v, %v: the frame should be well formed below the section rule", asMap.Partial, err)
			}
			var sec section
			var asSection message
			if err := decodeFrame(frameBody(t, frame), &asSection, true, false, true, false, false, &sec); err == nil {
				t.Fatalf("section decode accepted %s keys as %q", name, sec)
			}

			master, addr := startReduceCluster(t, MasterConfig{
				TaskTimeout: 5 * time.Second, JobTimeout: 30 * time.Second, Reducers: 4,
			}, 2)
			malformedReducer(t, addr, wordCountJob(), bad)
			if err := master.WaitForWorkers(3, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			lines := testLines(t, 300)
			res, stats, err := master.RunResult(context.Background(), "wordcount", lines, 6)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, runShard(wordCountJob(), lines, newShardScratch()))
			if stats.ReduceTasks != 4 {
				t.Errorf("ReduceTasks = %d, want 4", stats.ReduceTasks)
			}
			if stats.Reassignments == 0 {
				t.Error("the malformed reduce result caused no reassignment")
			}
		})
	}
}

// TestCompatMatrix is the mixed-version compatibility gate CI pins: one
// worker of every protocol generation — v1 JSON, bin, bin2, trace,
// reduce, comp, early — paired with a current worker under a master
// that has every feature enabled (including early shuffle, so morelocs
// streaming runs against every older generation), each run compared
// against the single-shard reference.
func TestCompatMatrix(t *testing.T) {
	gens := []struct {
		name string
		caps []string // nil: protocol-v1 JSON worker
	}{
		{"v1-json", nil},
		{"bin", []string{capBinary}},
		{"bin2", []string{capBinary, capBinaryExt, capBatch, capPartition}},
		{"trace", []string{capBinary, capBinaryExt, capBatch, capPartition, capTrace}},
		{"reduce", []string{capBinary, capBinaryExt, capBatch, capPartition, capTrace, capReduce}},
		{"comp", []string{capBinary, capBinaryExt, capBatch, capPartition, capTrace, capReduce, capComp}},
		{"early", workerCaps()},
	}
	lines := testLines(t, 400)
	want := runShard(wordCountJob(), lines, newShardScratch())
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			master, addr := startReduceCluster(t, MasterConfig{
				TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second,
				Reducers: 3, Trace: true, MaxTaskBatch: 2, EarlyShuffle: true,
			}, 1)
			if g.caps == nil {
				legacyJSONWorker(t, addr, wordCountJob())
			} else {
				w, err := NewWorker(mustRegistry(t))
				if err != nil {
					t.Fatal(err)
				}
				w.caps = g.caps
				if err := w.Start(addr); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.Stop)
			}
			if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			got, stats, err := master.Run(context.Background(), "wordcount", lines, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s + current cluster diverged from reference", g.name)
			}
			// The current worker always negotiates reduce, so every one of
			// these mixed runs must have taken the distributed-reduce path.
			if stats.ReduceTasks != 3 {
				t.Errorf("ReduceTasks = %d, want 3", stats.ReduceTasks)
			}
			if trc := master.LastTrace(); trc == nil || trc.OpenLaunches() != 0 {
				t.Errorf("trace missing or left launches open")
			}
		})
	}
}

// reduceFrameSeeds are the reduce/fetch wire shapes the focused fuzzer
// and the committed corpus start from.
func reduceFrameSeeds() []message {
	return []message{
		{Type: "reducetask", Job: "wc", TaskID: 1, Attempt: 0, Run: "wc#1",
			Locs: []fetchLoc{
				{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}},
				{Addr: "127.0.0.1:7002", Tasks: []int{1}},
			},
			Parts: []partitionPartial{{ID: 3, Partial: sectionFromMap(map[string]float64{"relayed": 1})}}},
		{Type: "reducetask", Job: "", TaskID: -1, Run: "", Locs: []fetchLoc{{Addr: "", Tasks: nil}}},
		{Type: "fetch", Run: "wc#1", TaskID: 0, Tasks: []int{0, 1, 2}},
		{Type: "fetch", Run: "", TaskID: -9, Tasks: nil},
		{Type: "fetchresult", TaskID: 0, Parts: []partitionPartial{
			{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1.5})},
			{ID: 2, Partial: ""},
		}},
		{Type: "mapdone", TaskID: 2, Attempt: 1, Run: "wc#1"},
		{Type: "result", TaskID: 1, Attempt: 2, Partial: map[string]float64{"folded": 9}, Bytes: 1 << 40},
		{Type: "morelocs", Run: "wc#1", TaskID: 2, Locs: []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{4}}}},
		{Type: "morelocs", Run: "wc#1", TaskID: 0, Message: "abort"},
	}
}

// FuzzDecodeReduceFrame focuses the codec fuzzer on the reduce layout
// block (Run/Reducers/Fetch/Bytes/Tasks/Locs): arbitrary bodies must
// decode or error under every red-carrying layout, never panic, and a
// body that decodes must re-encode and round-trip to the same message.
func FuzzDecodeReduceFrame(f *testing.F) {
	for _, m := range reduceFrameSeeds() {
		frame, _, err := appendFrame(nil, &m, nil, true, false, true, false, false)
		if err != nil {
			f.Fatal(err)
		}
		body := frameBody(f, frame)
		f.Add(body)
		f.Add(body[:len(body)*2/3])
		mut := append([]byte(nil), body...)
		if len(mut) > 4 {
			mut[4] ^= 0x40
		}
		f.Add(mut)
	}
	for _, body := range sortedBodies(badSectionBodies(f)) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, layout := range []struct{ trc bool }{{false}, {true}} {
			var m message
			if err := decodeFrame(bytes.Clone(body), &m, true, layout.trc, true, false, false, nil); err != nil {
				continue
			}
			walkSections(&m) // an accepted section can be iterated without failing
			for _, loc := range m.Locs {
				if len(loc.Addr) > len(body) {
					t.Fatalf("loc addr of %d bytes from a %d-byte body", len(loc.Addr), len(body))
				}
			}
			if len(m.Tasks) > len(body) {
				t.Fatalf("%d task ids from a %d-byte body", len(m.Tasks), len(body))
			}
			if _, ok := frameTypes[m.Type]; !ok {
				continue // unknown type placeholder, ignore-path
			}
			frame, _, err := appendFrame(nil, &m, nil, true, layout.trc, true, false, false)
			if err != nil {
				t.Fatalf("decoded frame failed to re-encode: %v", err)
			}
			var again message
			if err := decodeFrame(frameBody(t, frame), &again, true, layout.trc, true, false, false, nil); err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			if !reflect.DeepEqual(normalize(stripSpans(again)), normalize(stripSpans(m))) {
				t.Fatalf("reduce frame round trip lossy:\n in: %+v\nout: %+v", m, again)
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz when NETMR_WRITE_FUZZ_CORPUS is set. The files use the
// native Go fuzzing corpus format so `go test -fuzz` and the CI fuzz
// bursts pick them up without any -fuzztime spent rediscovering the
// valid frame shapes.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("NETMR_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set NETMR_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	for fuzzName, bodies := range fuzzCorpora(t) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, b := range bodies {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
			name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
			if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fuzzCorpora encodes the seed messages of every focused fuzzer into the
// bodies the committed corpus holds, file seed-NNN being bodies[NNN].
func fuzzCorpora(t *testing.T) map[string][][]byte {
	encode := func(m message, ext, trc, red, cmp, erl bool) []byte {
		frame, _, err := appendFrame(nil, &m, nil, ext, trc, red, cmp, erl)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		return frameBody(t, frame)
	}
	mutate := func(b []byte) []byte {
		mut := append([]byte(nil), b...)
		if len(mut) > 4 {
			mut[4] ^= 0x40
		}
		return mut
	}
	corpora := map[string][][]byte{}
	add := func(fuzzName string, bodies ...[]byte) {
		corpora[fuzzName] = append(corpora[fuzzName], bodies...)
	}
	for _, m := range codecMessages() {
		body := encode(m, true, true, true, false, true)
		add("FuzzDecodeFrame", body, body[:len(body)/2], mutate(body))
	}
	for _, m := range reduceFrameSeeds() {
		body := encode(m, true, false, true, false, false)
		add("FuzzDecodeReduceFrame", body, body[:len(body)*2/3], mutate(body))
	}
	for _, m := range codecMessages() {
		if m.Type != "presult" || m.Trace != "" || len(m.Spans) > 0 {
			continue
		}
		body := encode(m, true, false, false, false, false)
		add("FuzzDecodePartitionedResult", body, mutate(body))
	}
	for _, m := range codecMessages() {
		if m.Trace == "" && len(m.Spans) == 0 {
			continue
		}
		body := encode(m, true, true, false, false, false)
		add("FuzzDecodeSpanSummary", body, mutate(body))
	}
	for _, m := range compFrameSeeds() {
		body := encode(m, true, true, true, true, true)
		add("FuzzDecodeCompressedFrame", body, body[:len(body)/2], mutate(body))
	}
	return corpora
}
