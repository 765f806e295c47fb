package netmr

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"ipso/internal/chaos"
	"ipso/internal/obs"
	"ipso/internal/workload"
)

func wordCountJob() Job {
	return Job{
		Name: "wordcount",
		Map: func(record string, emit func(string, float64)) {
			for _, w := range strings.Fields(record) {
				emit(w, 1)
			}
		},
		Reduce: func(_ string, values []float64) float64 {
			total := 0.0
			for _, v := range values {
				total += v
			}
			return total
		},
	}
}

func mustRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry(wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// startCluster brings up a master plus n workers on localhost.
func startCluster(t *testing.T, n int) (*Master, []*Worker) {
	t.Helper()
	master, err := NewMaster(mustRegistry(t), MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	workers := make([]*Worker, 0, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		workers = append(workers, w)
	}
	if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return master, workers
}

// runCtx is a test run's context: a run that wedges fails its test
// within a minute, not at jobTimeout.
func runCtx(t testing.TB) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// waitIdle waits until n worker handles are in the master's idle pool. A
// worker is counted (WaitForWorkers) before admit puts its handle there,
// so a test that needs a particular worker drawn for a launch waits for
// the handle itself.
func waitIdle(t *testing.T, master *Master, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(master.idle) < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers reached the idle pool", len(master.idle), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitBarrier waits, up to 5 s, until master's traced run has accepted
// its last map output: the trace holds its split phase. A run that does
// not get there in time fails t. It may be called from a goroutine of the
// test's own (t.Error, not t.Fatal).
func awaitBarrier(t *testing.T, master *Master) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, e := range master.LastTrace().Spans() {
			if e.Phase == "split" {
				return
			}
		}
	}
	t.Error("the run did not pass its barrier within 5 s")
}

func testLines(t *testing.T, n int) []string {
	t.Helper()
	lines, err := workload.TextLines(n, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestRegistryValidation(t *testing.T) {
	if _, err := NewRegistry(Job{Name: "x"}); err == nil {
		t.Error("job without Map/Reduce should error")
	}
	if _, err := NewRegistry(Job{Map: wordCountJob().Map, Reduce: wordCountJob().Reduce}); err == nil {
		t.Error("unnamed job should error")
	}
	if _, err := NewRegistry(wordCountJob(), wordCountJob()); err == nil {
		t.Error("duplicate names should error")
	}
	if _, err := NewWorker(nil); err == nil {
		t.Error("worker without registry should error")
	}
	if _, err := NewMaster(nil, MasterConfig{}); err == nil {
		t.Error("master without registry should error")
	}
}

func TestDistributedWordCountMatchesLocal(t *testing.T) {
	master, _ := startCluster(t, 3)
	lines := testLines(t, 500)

	got, stats, err := master.Run(runCtx(t), "wordcount", lines, 9)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 3 || stats.Shards != 9 || stats.Reassignments != 0 {
		t.Errorf("unexpected stats %+v", stats)
	}

	// Ground truth computed locally.
	want := make(map[string]float64)
	for _, line := range lines {
		for _, w := range strings.Fields(line) {
			want[w]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("distinct keys %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Fatalf("count[%q] = %g, want %g", k, got[k], v)
		}
	}
}

func TestRunValidation(t *testing.T) {
	master, _ := startCluster(t, 1)
	if _, _, err := master.Run(runCtx(t), "nope", []string{"a"}, 1); err == nil {
		t.Error("unknown job should error")
	}
	if _, _, err := master.Run(runCtx(t), "wordcount", []string{"a"}, 0); err == nil {
		t.Error("zero shards should error")
	}
}

func TestRunWithoutWorkers(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := master.Run(runCtx(t), "wordcount", []string{"a"}, 1); err == nil {
		t.Error("not-listening master should error")
	}
	if _, err := master.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, _, err := master.Run(runCtx(t), "wordcount", []string{"a"}, 1); err == nil {
		t.Error("workerless run should error")
	}
}

func TestWorkerFailureReassignsShards(t *testing.T) {
	master, workers := startCluster(t, 3)
	lines := testLines(t, 300)

	// Kill one worker before the job: its admitted handle is still in
	// the idle pool, so the master discovers the death mid-dispatch and
	// must reassign that shard to a survivor. A worker's Start returns
	// once the helloack is read, which can be before admit has put its
	// handle in the pool: wait for all three, or the dead one could join
	// after the job has run.
	waitIdle(t, master, 3)
	workers[0].Stop()

	got, stats, err := master.Run(runCtx(t), "wordcount", lines, 12)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reassignments == 0 {
		t.Error("expected at least one reassignment after a worker death")
	}
	total := 0.0
	for _, v := range got {
		total += v
	}
	if total != float64(300*8) {
		t.Errorf("total words %g, want %d — results must survive worker failure intact", total, 300*8)
	}
}

func TestAllWorkersLostFailsCleanly(t *testing.T) {
	master, workers := startCluster(t, 1)
	workers[0].Stop()
	if _, _, err := master.Run(runCtx(t), "wordcount", testLines(t, 50), 4); err == nil {
		t.Error("run with every worker dead should fail")
	}
}

func TestSequentialVersusParallelShards(t *testing.T) {
	// The distributed runtime is a real system: with one worker the whole
	// split phase serializes, and with several it does not — but the
	// *result* is identical, the invariant the speedup definition needs.
	lines := testLines(t, 400)

	oneMaster, _ := startCluster(t, 1)
	seq, _, err := oneMaster.Run(runCtx(t), "wordcount", lines, 8)
	if err != nil {
		t.Fatal(err)
	}
	oneMaster.Close()

	fourMaster, _ := startCluster(t, 4)
	par, _, err := fourMaster.Run(runCtx(t), "wordcount", lines, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("key counts differ: %d vs %d", len(seq), len(par))
	}
	for k, v := range seq {
		if par[k] != v {
			t.Fatalf("results differ at %q: %g vs %g", k, v, par[k])
		}
	}
}

func TestBackToBackRuns(t *testing.T) {
	master, _ := startCluster(t, 2)
	lines := testLines(t, 100)
	for i := 0; i < 3; i++ {
		if _, _, err := master.Run(runCtx(t), "wordcount", lines, 4); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestStatsPhases: the three master walls tile every successful run
// exactly, SplitWall + ReduceWall + MergeWall = TotalWall, for Run and
// RunResult, traced and untraced; on a traced run the breakdown's Ws is
// MergeWall, a JSON dump derives the same Ws, and MaxTask + MaxReduce +
// Ws + Wo = TotalWall.
func TestStatsPhases(t *testing.T) {
	lines := testLines(t, 200)
	for _, traced := range []bool{false, true} {
		var master *Master
		if traced {
			master = startTracedCluster(t, 2, MasterConfig{})
		} else {
			master, _ = startCluster(t, 2)
		}
		for _, asMap := range []bool{true, false} {
			var stats Stats
			var err error
			if asMap {
				_, stats, err = master.Run(runCtx(t), "wordcount", lines, 4)
			} else {
				_, stats, err = master.RunResult(runCtx(t), "wordcount", lines, 4)
			}
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("traced=%v asMap=%v", traced, asMap)
			if stats.SplitWall <= 0 || stats.ReduceWall <= 0 || stats.MergeWall < 0 {
				t.Errorf("%s: implausible phase stats %+v", name, stats)
			}
			if sum := stats.SplitWall + stats.ReduceWall + stats.MergeWall; sum != stats.TotalWall {
				t.Errorf("%s: SplitWall + ReduceWall + MergeWall = %v, TotalWall %v", name, sum, stats.TotalWall)
			}
			if traced {
				checkTracedWalls(t, name, master.LastTrace(), stats)
			}
		}
	}
}

// checkTracedWalls checks the breakdown of a traced run against its
// Stats, live and from the run's JSON dump.
func checkTracedWalls(t *testing.T, name string, trc *JobTrace, stats Stats) {
	t.Helper()
	b := trc.Breakdown(stats)
	if b.Ws != stats.MergeWall.Seconds() {
		t.Errorf("%s: Ws %v, MergeWall %v", name, b.Ws, stats.MergeWall.Seconds())
	}
	if sum := b.MaxTask + b.MaxReduce + b.Ws + b.Wo; math.Abs(sum-b.TotalWall) > 1e-9 {
		t.Errorf("%s: MaxTask + MaxReduce + Ws + Wo = %v, TotalWall %v", name, sum, b.TotalWall)
	}
	var dump bytes.Buffer
	if err := trc.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceJSON(&dump)
	if err != nil {
		t.Fatal(err)
	}
	if ws := back.Breakdown(back.DerivedStats()).Ws; ws != b.Ws {
		t.Errorf("%s: Ws from the dump %v, live %v", name, ws, b.Ws)
	}
}

// runShard executes one shard into the flat map the tests compare a
// cluster's result with.
func runShard(j Job, records []string, sc *shardScratch) map[string]float64 {
	return flatten(runShardPartitioned(j, records, sc, 1, nil))
}

// flatten collapses one map task's partitioned output into the flat map
// serialMerge folds.
func flatten(parts []partitionPartial) map[string]float64 {
	n := 0
	for _, p := range parts {
		n += p.Partial.count()
	}
	out := make(map[string]float64, n)
	for _, p := range parts {
		p.Partial.addTo(out)
	}
	return out
}

// serialMerge is the test oracle: every partial folded through one
// goroutine, in the order given. Jobs with a streaming Combine fold
// partials directly into the result; the rest group values per key and
// Reduce once.
func serialMerge(job Job, partials []map[string]float64) map[string]float64 {
	if job.Combine != nil {
		out := map[string]float64{}
		for _, p := range partials {
			for k, v := range p {
				if acc, ok := out[k]; ok {
					out[k] = job.Combine(acc, v)
				} else {
					out[k] = v
				}
			}
		}
		return out
	}
	merged := map[string][]float64{}
	for _, p := range partials {
		for k, v := range p {
			merged[k] = append(merged[k], v)
		}
	}
	out := make(map[string]float64, len(merged))
	for k, vs := range merged {
		out[k] = job.Reduce(k, vs)
	}
	return out
}

// TestAdmitRacingCloseLeavesNoConnection: a worker whose handshake races
// Close ends with its connection closed and uncounted. WaitForWorkers
// counts a worker before admit puts its handle in the idle pool, so a
// Close right after it can drain the pool first; a handle put there
// afterwards would never be closed, a descriptor left open on the master
// port. Injected latency on the master's side of the connection holds
// the helloack 20 ms, so each round's Close lands in that window; the
// worker must then see the master hang up.
func TestAdmitRacingCloseLeavesNoConnection(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	slow := chaos.New(chaos.Config{Latency: chaos.Dist{Kind: chaos.DistFixed, Base: 20 * time.Millisecond}, Metrics: obs.NewRegistry()})
	for round := 0; round < 5; round++ {
		master, err := NewMaster(mustRegistry(t), MasterConfig{Chaos: slow})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := master.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan error, 1)
		go func() { started <- w.Start(addr) }()
		if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		master.Close()
		if err := <-started; err == nil {
			select {
			case <-w.done:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: the worker's connection is still open after Close", round)
			}
		}
		if n, idle := master.WorkerCount(), len(master.idle); n != 0 || idle != 0 {
			t.Fatalf("round %d: %d worker(s) counted and %d handle(s) idle after Close", round, n, idle)
		}
		w.Stop()
	}
	settled(t, goroutines, fds)
}
