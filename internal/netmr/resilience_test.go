package netmr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipso/internal/chaos"
	"ipso/internal/obs"
)

func TestBackoffDelayCapRespected(t *testing.T) {
	base := 20 * time.Millisecond
	max := 2 * time.Second
	for attempt := 1; attempt <= 40; attempt++ {
		d := backoffDelay(base, max, 0.2, 7, 0, attempt)
		if d > max {
			t.Fatalf("attempt %d: delay %v exceeds cap %v", attempt, d, max)
		}
		if d < 0 {
			t.Fatalf("attempt %d: negative delay %v", attempt, d)
		}
	}
}

func TestBackoffDelayDoublesWithoutJitter(t *testing.T) {
	base := 10 * time.Millisecond
	max := 500 * time.Millisecond
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond,
		500 * time.Millisecond, 500 * time.Millisecond,
	}
	for i, w := range want {
		// Jitter 0 means backoffDelay skips the jitter draw entirely.
		if d := backoffDelay(base, max, 0, 1, 0, i+1); d != w {
			t.Fatalf("attempt %d: got %v want %v", i+1, d, w)
		}
	}
}

func TestBackoffDelayJitterBoundedAndDeterministic(t *testing.T) {
	base := 100 * time.Millisecond
	max := 10 * time.Second
	jitter := 0.25
	for shard := 0; shard < 8; shard++ {
		for attempt := 1; attempt <= 6; attempt++ {
			nominal := backoffDelay(base, max, 0, 3, shard, attempt)
			lo := time.Duration(float64(nominal) * (1 - jitter))
			hi := time.Duration(float64(nominal) * (1 + jitter))
			d := backoffDelay(base, max, jitter, 3, shard, attempt)
			if d < lo || d > hi {
				t.Fatalf("shard %d attempt %d: delay %v outside [%v, %v]", shard, attempt, d, lo, hi)
			}
			if again := backoffDelay(base, max, jitter, 3, shard, attempt); again != d {
				t.Fatalf("shard %d attempt %d: %v then %v for the same seed", shard, attempt, d, again)
			}
			if other := backoffDelay(base, max, jitter, 4, shard, attempt); other == d {
				t.Fatalf("shard %d attempt %d: seeds 3 and 4 both produced %v", shard, attempt, d)
			}
		}
	}
}

func TestLatencyQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := latencyQuantile(xs, 0.5); q != 3 {
		t.Fatalf("median of 1..5 = %v, want 3", q)
	}
	if q := latencyQuantile(xs, 1); q != 5 {
		t.Fatalf("max of 1..5 = %v, want 5", q)
	}
	if got := fmt.Sprint(xs); got != "[5 1 3 2 4]" {
		t.Fatalf("quantile mutated its input: %s", got)
	}
}

// TestRetryBudgetExhaustionSurfacesLastError drives every dispatch into
// an injected drop (master-side chaos, DropRate 1 with the handshake's
// two ops exempt: a helloack that cannot be sent refuses the worker) so
// one shard burns its full MaxAttempts budget; the returned
// error must name the shard, the attempt count, and wrap the final
// injected error — at the default reducer count (0: GOMAXPROCS) and at
// R = 2.
func TestRetryBudgetExhaustionSurfacesLastError(t *testing.T) {
	for _, reducers := range []int{0, 2} {
		t.Run(fmt.Sprintf("reducers=%d", reducers), func(t *testing.T) {
			inj := chaos.New(chaos.Config{Seed: 11, DropRate: 1, GraceOps: 2})
			master, err := NewMaster(mustRegistry(t), MasterConfig{
				MaxAttempts:    3,
				RetryBaseDelay: time.Millisecond,
				Reducers:       reducers,
				Chaos:          inj,
				Metrics:        obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := master.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(master.Close)
			for i := 0; i < 4; i++ {
				w, err := NewWorker(mustRegistry(t))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Start(addr); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.Stop)
			}
			if err := master.WaitForWorkers(4, 5*time.Second); err != nil {
				t.Fatal(err)
			}

			_, stats, err := master.Run(runCtx(t), "wordcount", testLines(t, 8), 1)
			if err == nil {
				t.Fatal("expected retry budget exhaustion, got success")
			}
			if !strings.Contains(err.Error(), "shard 0 failed 3 times") {
				t.Fatalf("error does not name the shard and attempt count: %v", err)
			}
			if !errors.Is(err, chaos.ErrInjectedDrop) {
				t.Fatalf("error does not wrap the last launch error: %v", err)
			}
			if stats.Reassignments != 2 {
				t.Fatalf("Reassignments = %d, want 2 (three launches, two requeues)", stats.Reassignments)
			}
		})
	}
}

// sleeperRegistry registers a job whose map cost is written in the
// record itself ("key:millis"), so tests can shape per-shard latency
// exactly and deterministically.
func sleeperRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry(Job{
		Name: "sleeper",
		Map: func(record string, emit func(string, float64)) {
			key, msText, _ := strings.Cut(record, ":")
			ms, _ := strconv.Atoi(msText)
			time.Sleep(time.Duration(ms) * time.Millisecond)
			emit(key, 1)
		},
		Reduce: func(_ string, values []float64) float64 {
			total := 0.0
			for _, v := range values {
				total += v
			}
			return total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func startSleeperCluster(t *testing.T, cfg MasterConfig, workers int) *Master {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	master, err := NewMaster(sleeperRegistry(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(sleeperRegistry(t))
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
	// Whether a map batch carries a reduce launch depends on the idle
	// pool, which a worker joins after it counts as connected.
	waitIdle(t, master, workers)
	return master
}

// TestDuplicateSpeculativeResultDiscardedOnce engineers a race the
// original launch wins: shard 0 sleeps 300 ms, its clone (launched once
// all six fast shards have answered, at twice their median, ~120 ms: the
// second 30 ms shard of a frame answers 60 ms after its dispatch, and none
// is left in flight to be cloned) also sleeps 300 ms, so
// the clone's result lands while shard 1 (700 ms) is still pending —
// and must be discarded exactly once. Shard 1's clone is still in
// flight when the map phase completes, so it is counted as a
// cancellation. The reduce tasks (R = 2, 4 and the GOMAXPROCS default)
// finish within a speculation tick of the barrier, so the counts are the
// map phase's either way. Shards 0 and 1 share one frame, so the three
// other workers go idle under the map tail and take reduce launches; at
// R = 4 they all do, and the clones run only because a ready map task
// calls a reduce launch back. That frame fills its worker's fair share
// and carries a reduce launch, still in its map part (shard 1 sleeping)
// at the barrier: its partition is spared, a third speculation, and the
// carried launch outlives the job, a second cancellation.
func TestDuplicateSpeculativeResultDiscardedOnce(t *testing.T) {
	for _, reducers := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("reducers=%d", reducers), func(t *testing.T) {
			master := startSleeperCluster(t, MasterConfig{
				SpeculationInterval: 25 * time.Millisecond,
				Reducers:            reducers,
			}, 4)
			master.straggler = stragglerRule{q: 0.5, mult: 2, minObs: 6}

			records := []string{"slow:300", "slower:700", "c:30", "c:30", "c:30", "c:30", "c:30", "c:30"}
			result, stats, err := master.Run(runCtx(t), "sleeper", records, len(records))
			if err != nil {
				t.Fatal(err)
			}
			if result["slow"] != 1 || result["slower"] != 1 || result["c"] != 6 {
				t.Fatalf("merge double-counted a duplicate result: %v", result)
			}
			if stats.Completed != len(records) {
				t.Fatalf("Completed = %d, want %d", stats.Completed, len(records))
			}
			if stats.Speculations != 3 {
				t.Fatalf("Speculations = %d, want 3 (one clone per straggler, and the spare of the launch their frame carries)", stats.Speculations)
			}
			if stats.Duplicates != 1 {
				t.Fatalf("Duplicates = %d, want exactly 1 (shard 0's late clone)", stats.Duplicates)
			}
			if stats.Cancellations != 2 {
				t.Fatalf("Cancellations = %d, want 2 (shard 1's clone and the carried reduce launch outlived the job)", stats.Cancellations)
			}
			if reducers == 4 && stats.EarlyAborts == 0 {
				t.Fatal("EarlyAborts = 0: the clones found no idle worker, yet no reduce launch was called back")
			}
		})
	}
}

// TestContextCancellationAbortsSpeculation cancels the job while an
// original launch and its speculative clone are both in flight; Run
// must return the context error promptly and account for both
// abandoned launches.
func TestContextCancellationAbortsSpeculation(t *testing.T) {
	master := startSleeperCluster(t, MasterConfig{SpeculationInterval: 20 * time.Millisecond}, 2)
	master.straggler = stragglerRule{q: 0.75, mult: 2, minObs: 1}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, stats, err := master.Run(ctx, "sleeper", []string{"fast:5", "slow:600"}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 450*time.Millisecond {
		t.Fatalf("Run took %v after cancellation; it waited for in-flight launches", wall)
	}
	if stats.Speculations != 1 {
		t.Fatalf("Speculations = %d, want 1 (slow shard cloned before cancel)", stats.Speculations)
	}
	if stats.Cancellations != 3 {
		t.Fatalf("Cancellations = %d, want 3 (original + clone abandoned, and the reduce launch the original carries; a clone carries none)", stats.Cancellations)
	}
}

// TestJobBoundedByContextDeadline: a run is bounded by its caller's ctx.
// A sleeper run whose deadline falls while shard 1 still sleeps returns an
// error wrapping context.DeadlineExceeded at once, counts its two
// abandoned launches (the sleeping shard and the reduce launch awaiting
// it) in Cancellations, and leaves no goroutine, descriptor or spill file
// behind.
func TestJobBoundedByContextDeadline(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	master, err := NewMaster(sleeperRegistry(t), MasterConfig{Reducers: 1, Metrics: obs.NewRegistry()})
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
		w, err := NewWorker(sleeperRegistry(t), WithWorkerConfig(WorkerConfig{SpillBudget: 1, SpillDir: dirs[i]}))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	waitIdle(t, master, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, stats, err := master.Run(ctx, "sleeper", []string{"fast:5", "slow:600"}, 2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if wall := time.Since(start); wall > 450*time.Millisecond {
		t.Fatalf("Run took %v past a 150 ms deadline; it waited for in-flight launches", wall)
	}
	if stats.Cancellations != 2 {
		t.Fatalf("Cancellations = %d, want 2 (the slow shard and the reduce launch awaiting it)", stats.Cancellations)
	}
	waitIdle(t, master, 2) // the abandoned launches come home
	master.Close()
	for i, w := range workers {
		w.Stop()
		if n := spillFilesLeft(t, dirs[i]); n != 0 {
			t.Errorf("worker %d left %d spill file(s)", i, n)
		}
	}
	settled(t, goroutines, fds)
}

// TestChaosGauntlet is the end-to-end resilience proof from the issue:
// 9 workers dropping 30% of their writes, one worker that crashes on
// its first task, and two slow-but-reliable workers that force
// speculation — the job must still finish with a correct result, and
// the retry/speculation work must be visible on /metrics.
func TestChaosGauntlet(t *testing.T) {
	reg := obs.NewRegistry()
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		MaxAttempts:         10,
		RetryBaseDelay:      2 * time.Millisecond,
		SpeculationInterval: 25 * time.Millisecond,
		Metrics:             reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	obsAddr, err := master.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	startWorker := func(i int, cfg chaos.Config) {
		t.Helper()
		w, err := NewWorker(mustRegistry(t), WithChaos(chaos.New(cfg)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	n := 0
	for i := 0; i < 9; i++ { // flaky: 30% of writes dropped, hello exempt
		startWorker(n, chaos.Config{Seed: int64(100 + i), DropRate: 0.3, GraceOps: 1})
		n++
	}
	// One permanent casualty: crashes on its first task, never retried
	// on — the "machine that died mid-job".
	startWorker(n, chaos.Config{Seed: 200, CrashRate: 1})
	n++
	for i := 0; i < 2; i++ { // slow but reliable: manufacture stragglers
		startWorker(n, chaos.Config{Seed: int64(300 + i), TaskLatency: chaos.Dist{Kind: chaos.DistFixed, Base: 300 * time.Millisecond}})
		n++
	}
	if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 160)
	want := runShard(wordCountJob(), lines, new(shardScratch))

	result, stats, err := master.Run(runCtx(t), "wordcount", lines, 16)
	if err != nil {
		t.Fatalf("job did not survive the gauntlet: %v (stats %+v)", err, stats)
	}
	if len(result) != len(want) {
		t.Fatalf("result has %d keys, want %d", len(result), len(want))
	}
	for k, v := range want {
		if result[k] != v {
			t.Fatalf("key %q = %v, want %v", k, result[k], v)
		}
	}
	if stats.Completed != 16 {
		t.Fatalf("Completed = %d, want 16", stats.Completed)
	}
	if stats.Reassignments == 0 {
		t.Fatal("expected reassignments under 30% drops and a crashed worker")
	}
	if stats.Speculations == 0 {
		t.Fatal("expected speculation against the 300 ms stragglers")
	}

	// The work must be visible on the wire: scrape /metrics.
	resp, err := http.Get("http://" + obsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, metric := range []string{"netmr_retries_total", "netmr_speculations_total"} {
		val, ok := scrapeValue(text, metric)
		if !ok {
			t.Fatalf("metric %s missing from /metrics:\n%s", metric, text)
		}
		if val <= 0 {
			t.Fatalf("metric %s = %v, want > 0", metric, val)
		}
	}
}

// scrapeValue pulls an unlabelled sample value out of Prometheus text.
func scrapeValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
