package netmr

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipso/internal/obs"
)

// A map output whose primary and replica are both lost is a map task to
// run again, on a worker: the two tests below lose both holders of one
// output of a three-worker cluster, after the barrier and before it, and
// check that the output is the reference's, that the lost shard ran a
// second time on the survivor, and that the master ran no job code.

// noUserCode is the master's registry for the re-run tests: its job has
// the workers' name, and fails the test if the master calls its Map or
// its Reduce.
func noUserCode(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry(Job{
		Name: "wordcount",
		Map:  func(string, func(string, float64)) { t.Error("the master ran Map") },
		Reduce: func(string, []float64) float64 {
			t.Error("the master ran Reduce")
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// rerunMaster is a traced master for three workers, with a retry budget
// that the doomed workers' failed reduce launches cannot exhaust.
func rerunMaster(t *testing.T) (*Master, string) {
	t.Helper()
	master, err := NewMaster(noUserCode(t), MasterConfig{
		TaskTimeout: 5 * time.Second, JobTimeout: 60 * time.Second, Reducers: 3,
		MaxAttempts: 10, RetryBaseDelay: 5 * time.Millisecond, Trace: true, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	return master, addr
}

// checkRerun runs wordcount over three shards, one a worker, and checks
// the re-run rule: the reference output, netmr_map_reexecutions_total
// risen, and a lost shard with a second ok launch, on survivor. It
// returns that launch's span and the split phase's.
func checkRerun(t *testing.T, master *Master, survivor string) (rerun, split TraceSpan) {
	t.Helper()
	waitIdle(t, master, 3) // so each worker maps one shard
	lines := testLines(t, 300)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runShard(wordCountJob(), lines, new(shardScratch))) {
		t.Fatal("output diverged from the reference after the loss")
	}
	if n := master.metrics.mapReexecs.Value(); n < 1 {
		t.Errorf("netmr_map_reexecutions_total = %v, want the lost output's re-run counted", n)
	}
	if stats.Completed != 3 || stats.MapOutputsStored < 4 || stats.RecoveryWall <= 0 {
		t.Errorf("Completed %d, MapOutputsStored %d, RecoveryWall %v; want 3, at least 4 and > 0", stats.Completed, stats.MapOutputsStored, stats.RecoveryWall)
	}
	oks := map[int][]TraceSpan{}
	for _, sp := range master.LastTrace().Spans() {
		switch {
		case sp.Phase == "split":
			split = sp
		case sp.Phase == "task" && sp.Outcome == outcomeOK:
			oks[sp.Shard] = append(oks[sp.Shard], sp)
		}
	}
	for shard, launches := range oks {
		if len(launches) > 1 {
			if rerun = launches[len(launches)-1]; rerun.Worker != survivor {
				t.Errorf("shard %d ran again on %s, want the survivor %s", shard, rerun.Worker, survivor)
			}
			return rerun, split
		}
	}
	t.Fatalf("no shard has a second ok launch: %v", oks)
	return
}

// TestLostOutputRerunAfterBarrier: two workers die once every map output
// is stored — each as its reduce launch has every location — taking one
// output and its replica with them. The reduce plans after the barrier
// re-open that map task, it runs again on the survivor inside the reduce
// window, and the reducers that await it are sent its new location.
func TestLostOutputRerunAfterBarrier(t *testing.T) {
	master, addr := rerunMaster(t)
	for _, id := range []string{"doomed-0", "doomed-1"} {
		rogueServe(t, addr, id, func(w *Worker, c *conn, m message) (bool, bool) {
			if m.Type != "reducetask" {
				return false, true
			}
			// Collect the locations streamed to a launch under the map tail
			// until they cover every map output: the barrier has passed.
			for coverage(m) < m.Total {
				u, err := c.recv(30 * time.Second)
				if err != nil || u.Message == "abort" {
					break
				}
				m.Locs = append(m.Locs, u.Locs...)
			}
			w.Stop()
			_ = c.close()
			return true, false
		})
	}
	survivor, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(survivor.Stop)
	rerun, split := checkRerun(t, master, survivor.netConn.LocalAddr().String())
	if rerun.Start < split.End {
		t.Errorf("the re-run started at %.6fs, before the barrier at %.6fs", rerun.Start, split.End)
	}
}

// TestLostOutputRerunBeforeBarrier: two workers die right after their
// first map output is stored, while the survivor still maps, taking one
// output and its replica with them; their reduce launches fail. The
// survivor's first reduce plan re-opens the lost map task, calls itself
// back for it, runs it, and the reduce tasks finish on the re-run's
// output.
func TestLostOutputRerunBeforeBarrier(t *testing.T) {
	master, addr := rerunMaster(t)
	for i := 0; i < 2; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		w.killAfterMapdone = true
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	// The survivor's first shard outlasts the doomed workers' deaths.
	job := wordCountJob()
	var once sync.Once
	inner := job.Map
	job.Map = func(record string, emit func(string, float64)) {
		once.Do(func() { time.Sleep(150 * time.Millisecond) })
		inner(record, emit)
	}
	reg, err := NewRegistry(job)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := NewWorker(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(survivor.Stop)
	checkRerun(t, master, survivor.netConn.LocalAddr().String())
}

// pipeWorkers puts n workers named w0… in m's idle pool, each behind a
// pipe whose far end plays a reducer: it takes a reducetask, reads its
// morelocs until they cover every map output or an abort comes, and
// answers with what fetchFails returns for the frame (a fetch failure
// when it names a holder) or an empty result, or with the call-back's
// acknowledgement. Map launches are the test's own and use no pipe.
func pipeWorkers(t *testing.T, m *Master, n int, fetchFails func(message) string) {
	t.Helper()
	for i := 0; i < n; i++ {
		near, far := net.Pipe()
		t.Cleanup(func() { near.Close(); far.Close() })
		go func() {
			c := newConn(far)
			for {
				fr, err := c.recv(0)
				if err != nil {
					return
				}
				reply := message{Type: "result", TaskID: fr.TaskID}
				for covered := coverage(fr); covered < fr.Total; {
					u, err := c.recv(0)
					if err != nil {
						return
					}
					if u.Message == "abort" {
						reply = message{Type: "error", TaskID: fr.TaskID, Message: "called back"}
						break
					}
					fr.Locs = append(fr.Locs, u.Locs...)
					covered += coverage(u)
				}
				if holder := fetchFails(fr); holder != "" && reply.Type == "result" {
					reply = message{Type: "error", TaskID: fr.TaskID, Fetch: holder, Message: "fetch failed"}
				}
				if c.send(reply, 5*time.Second) != nil {
					return
				}
			}
		}()
		id := fmt.Sprintf("w%d", i)
		m.idle <- &workerHandle{id: id, c: newConn(near), fetch: id}
	}
	m.count.Store(int64(n))
}

// speculativeRun is a job run of two shards over testLines, with
// speculation ticking every millisecond against the fastest completed
// launch: whatever runs past it is cloned, once.
func speculativeRun(t *testing.T, reducers, attempts int, live ...string) (*Master, *jobRun, *Stats) {
	t.Helper()
	m, err := NewMaster(mustRegistry(t), MasterConfig{
		Reducers: reducers, MaxAttempts: attempts, RetryBaseDelay: time.Millisecond, TaskTimeout: 5 * time.Second,
		SpeculationInterval: time.Millisecond, SpeculationQuantile: 0.01, SpeculationMultiplier: 1, SpeculationMinObservations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range live {
		m.addrLive[addr] = true
	}
	stats := new(Stats)
	return m, m.newJobRun("wordcount", testLines(t, 40), 2, stats), stats
}

// TestReduceLaunchAwaitingRerunIsNotStranded: reduce partition 1's first
// plan names holder y, which its reducer then fails to fetch from; the
// retry's plan re-opens shard 1, whose re-run takes 50 ms, while
// partition 0's latency and the tick would clone anything that runs
// long. The run ends with every worker back in the pool: no reduce launch
// is left waiting on a location stream that nothing sends to.
func TestReduceLaunchAwaitingRerunIsNotStranded(t *testing.T) {
	m, r, stats := speculativeRun(t, 2, 3, "x", "y", "z")
	pipeWorkers(t, m, 4, func(fr message) string {
		if fr.TaskID == 1 && slices.ContainsFunc(fr.Locs, func(l fetchLoc) bool { return l.Addr == "y" }) {
			return "y"
		}
		return ""
	})
	r.maps.launch = func(w *workerHandle, batch []shardTask, _ []int) {
		rerun := !r.barrier.IsZero()
		go func() {
			for _, task := range batch {
				addr := []string{"x", "y"}[task.id]
				if rerun {
					time.Sleep(50 * time.Millisecond)
					addr = "z"
				}
				r.results <- launchDone{task: task, fetchAddr: addr, launch: -1}
			}
			m.idle <- w
		}()
	}
	if err := m.schedule(context.Background(), r, nil); err != nil {
		t.Fatal(err)
	}
	if n := m.metrics.mapReexecs.Value(); n < 1 {
		t.Fatalf("netmr_map_reexecutions_total = %v; want shard 1 re-run", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(m.idle) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 workers back in the pool (Speculations %d): a reduce launch is stuck on its stream", len(m.idle), stats.Speculations)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbandonedMapReportAfterReopen: shard 1's first launch is still out
// when its speculative clone wins and passes the barrier, which abandons
// it. The clone's holder is dead, so the reduce plan re-opens shard 1
// (at once, or on the retry of a reducer that failed to fetch from it),
// and the abandoned launch reports while the re-run is out. Its report
// belongs to the abandoned flight and is dropped: a failure queues no
// retry, and an ok is not the winner — shard 1's output is the re-run's.
func TestAbandonedMapReportAfterReopen(t *testing.T) {
	for _, stale := range []string{"ok", "failed"} {
		t.Run(stale, func(t *testing.T) {
			m, r, stats := speculativeRun(t, 1, 2, "x", "x2", "x3")
			var fetchFailures atomic.Int32
			pipeWorkers(t, m, 3, func(fr message) string {
				if slices.ContainsFunc(fr.Locs, func(l fetchLoc) bool { return l.Addr == "gone" }) {
					fetchFailures.Add(1)
					return "gone"
				}
				return ""
			})
			reopened, reported := make(chan struct{}), make(chan struct{})
			var once sync.Once
			r.maps.launch = func(w *workerHandle, batch []shardTask, _ []int) {
				task := batch[0]
				rerun := !r.barrier.IsZero()
				go func() {
					switch {
					case task.id == 0:
						r.results <- launchDone{task: task, fetchAddr: "x", launch: -1}
					case rerun:
						once.Do(func() { close(reopened) })
						<-reported
						time.Sleep(20 * time.Millisecond) // the loop applies the stale report first
						r.results <- launchDone{task: task, fetchAddr: "x2", launch: -1}
					case task.speculative:
						r.results <- launchDone{task: task, fetchAddr: "gone", launch: -1}
					default:
						<-reopened
						if stale == "ok" {
							r.results <- launchDone{task: task, fetchAddr: "x3", launch: -1}
						} else {
							r.fails <- launchFail{task: task, err: errors.New("worker lost"), launch: -1}
						}
						close(reported)
					}
					m.idle <- w
				}()
			}
			if err := m.schedule(context.Background(), r, nil); err != nil {
				t.Fatal(err)
			}
			if r.mapLocs[1] != "x2" || stats.Completed != 2 || stats.Cancellations < 1 {
				t.Errorf("shard 1 at %q, Completed %d, Cancellations %d; want the re-run's x2, 2 and the abandoned launch counted",
					r.mapLocs[1], stats.Completed, stats.Cancellations)
			}
			if n := int(fetchFailures.Load()); stats.Reassignments != n {
				t.Errorf("Reassignments %d; want %d, one per failed fetch and none for the abandoned launch", stats.Reassignments, n)
			}
		})
	}
}

// TestSpeculationSkipsAwaitingReduceLaunch: a reduce launch that awaits a
// map output is no straggler, however long it has run: a clone would
// await the same re-run. Once its stream has ended, it is one again.
func TestSpeculationSkipsAwaitingReduceLaunch(t *testing.T) {
	_, r, stats := speculativeRun(t, 2, 1)
	r.reduces.lat = []float64{0.001}
	r.reduces.inflight[1] = &flight{launches: 1, lastLaunch: time.Now().Add(-time.Second)}
	s := &locStream{p: 1, updates: make(chan message, 2), awaits: []int{0}}
	r.streams[s] = true
	r.reduces.queue = nil
	r.speculate(r.reduces)
	if len(r.reduces.queue) != 0 || stats.Speculations != 0 {
		t.Fatalf("queue %+v, Speculations %d; want no clone of a launch that awaits a map output", r.reduces.queue, stats.Speculations)
	}
	r.endStream(s, false)
	r.speculate(r.reduces)
	if len(r.reduces.queue) != 1 || !r.reduces.queue[0].speculative || stats.Speculations != 1 {
		t.Fatalf("queue %+v; want partition 1 cloned once its stream ended", r.reduces.queue)
	}
}
