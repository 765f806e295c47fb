package netmr

import (
	"context"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// dispatchBatches runs a job's task graph over records in shards on a
// master with that many live workers, the launches replaced by recorders:
// it returns the map task ids each dispatch carried.
func dispatchBatches(t *testing.T, records []string, shards, workers int) [][]int {
	t.Helper()
	m, err := NewMaster(mustRegistry(t), MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.count.Store(int64(workers))
	for i := 0; i < workers; i++ {
		m.idle <- &workerHandle{id: string(rune('a' + i))}
	}
	var stats Stats
	r := m.newJobRun("wordcount", records, shards, &stats)
	var batches [][]int
	r.maps.launch = func(w *workerHandle, batch []shardTask, _ []int) {
		ids := make([]int, len(batch))
		for i, task := range batch {
			ids[i] = task.id
			r.results <- launchDone{task: task, launch: -1}
		}
		batches = append(batches, ids)
		m.idle <- w
	}
	r.reduces.launch = func(w *workerHandle, batch []shardTask, _ []int) {
		r.results <- launchDone{task: batch[0], launch: -1}
		m.idle <- w
	}
	if err := m.schedule(context.Background(), r, nil); err != nil {
		t.Fatal(err)
	}
	return batches
}

// TestDispatchBatchesByShardBytes: the shard's bytes decide the batch.
// Small shards share a frame up to the worker's fair share; shards whose
// bytes pass batchBytes travel alone, a 1.5 MB one (tera-mem's) in a task
// frame of its own; a batch stops at batchBytes.
func TestDispatchBatchesByShardBytes(t *testing.T) {
	lines := func(n, size int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = strings.Repeat("w ", size/2)
		}
		return out
	}
	for _, tc := range []struct {
		name            string
		records         []string
		shards, workers int
		want            [][]int
	}{
		{"eight small shards on two workers", lines(400, 70), 8, 2, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}},
		{"1.5 MB shards alone", lines(4*15_000, 100), 4, 2, [][]int{{0}, {1}, {2}, {3}}},
		{"100 KiB shards two a frame", lines(8*1024, 100), 8, 2, [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}},
		{"one worker takes them all", lines(40, 70), 4, 1, [][]int{{0, 1, 2, 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := dispatchBatches(t, tc.records, tc.shards, tc.workers); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("dispatches %v, want %v", got, tc.want)
			}
		})
	}
}

// TestDispatchSendsClonesAndRetriesAlone: a speculative clone or a retry
// leaves in a frame of its own, and a batch of first launches skips them.
func TestDispatchSendsClonesAndRetriesAlone(t *testing.T) {
	m, err := NewMaster(mustRegistry(t), MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.count.Store(2)
	var stats Stats
	r := m.newJobRun("wordcount", testLines(t, 80), 8, &stats)
	var batches [][]int
	r.maps.launch = func(_ *workerHandle, batch []shardTask, _ []int) {
		ids := make([]int, len(batch))
		for i, task := range batch {
			ids[i] = task.id
		}
		batches = append(batches, ids)
	}
	r.maps.queue = []shardTask{{id: 0, speculative: true}, {id: 1}, {id: 2}, {id: 3, attempts: 1}, {id: 4}}
	for len(r.maps.queue) > 0 {
		r.dispatch(r.maps, &workerHandle{id: "a"}, 0)
	}
	if want := [][]int{{0}, {1, 2, 4}, {3}}; !reflect.DeepEqual(batches, want) {
		t.Errorf("dispatches %v, want %v", batches, want)
	}
}

// fakeReplicaPeer is a shuffle listener taking replicate frames: it acks
// every frame except those of the tasks in refused, which it answers with
// an error frame; with cut it acks a connection's first frame, reads the
// next and hangs up, listener and all. stop closes it and waits for its
// goroutines.
func fakeReplicaPeer(t *testing.T, refused map[int]bool, cut bool) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := newConn(raw)
				defer c.close()
				for n := 0; ; n++ {
					m, err := c.recv(5 * time.Second)
					if err != nil {
						return
					}
					if cut && n == 1 {
						_ = ln.Close()
						return
					}
					reply := message{Type: "replicack", TaskID: m.TaskID}
					if refused[m.TaskID] {
						reply = message{Type: "error", TaskID: m.TaskID, Message: "no room"}
					}
					if c.send(reply, 5*time.Second) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		wg.Wait()
	}
}

// settled waits for the goroutine and descriptor counts to fall back to
// what they were before a test's cluster, and reports any left over.
func settled(t *testing.T, goroutines, fds int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for (runtime.NumGoroutine() > goroutines || (fds >= 0 && openFDs() > fds)) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines left, %d before", n, goroutines)
	}
	if n := openFDs(); fds >= 0 && n > fds {
		t.Errorf("%d descriptors left, %d before", n, fds)
	}
}

// TestBatchPushFaultsAnswerUnreplicated: a batch pushes its partition sets
// to the replica peer in one exchange. A set the peer refuses, and every
// set the peer never answered because it died partway through, is
// answered by a mapdone that names no replica and carries nothing, its
// output whole in the mapper's store; the sets it acked are named
// replicated. Nothing leaks.
func TestBatchPushFaultsAnswerUnreplicated(t *testing.T) {
	lines := testLines(t, 40)
	specs := make([]taskSpec, 4)
	for i := range specs {
		specs[i] = taskSpec{Job: "wordcount", TaskID: i, Records: lines[i*10 : (i+1)*10]}
	}
	for _, tc := range []struct {
		name       string
		refused    map[int]bool
		cut        bool
		replicated []bool
	}{
		{"peer refuses two", map[int]bool{1: true, 3: true}, false, []bool{true, false, true, false}},
		{"peer dies after one", nil, true, []bool{true, false, false, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), openFDs()
			peer, stop := fakeReplicaPeer(t, tc.refused, tc.cut)
			w, err := NewWorker(mustRegistry(t))
			if err != nil {
				t.Fatal(err)
			}
			w.reducers = 2
			w.store.setReducers(2)
			master, worker := net.Pipe()
			served := make(chan struct{})
			go func() {
				defer close(served)
				w.serve(newConn(worker))
			}()
			c := newConn(master)
			if err := c.send(message{Type: "taskbatch", Batch: specs, Run: "wordcount#1", Rep: peer}, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			for i, spec := range specs {
				reply, err := c.recv(5 * time.Second)
				if err != nil || reply.Type != "mapdone" || reply.TaskID != i {
					t.Fatalf("answer %d: %+v, %v; want shard %d's mapdone", i, reply, err, i)
				}
				wantRep := ""
				if tc.replicated[i] {
					wantRep = peer
				}
				if reply.Rep != wantRep || reply.Parts != nil {
					t.Errorf("shard %d: Rep %q with %d inline parts; want Rep %q and nothing inline", i, reply.Rep, len(reply.Parts), wantRep)
				}
				w.store.mu.Lock()
				st := w.store.tasks[i]
				w.store.mu.Unlock()
				if st == nil || !reflect.DeepEqual(flatten(st.parts), runShard(wordCountJob(), spec.Records, new(shardScratch))) {
					t.Errorf("shard %d: the mapper's store does not hold its output", i)
				}
			}
			_ = c.close()
			<-served
			w.Stop()
			stop()
			settled(t, goroutines, fds)
		})
	}
}

// TestBatchReplicaPeerFaultsKeepOutput: on a cluster one of whose workers
// replicates to a peer that refuses some sets, or dies partway through a
// batch's push, those shards' outputs live in their mapper's store alone
// and the job's output still equals the local reference. Nothing leaks.
func TestBatchReplicaPeerFaultsKeepOutput(t *testing.T) {
	lines := testLines(t, 400)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	for _, tc := range []struct {
		name string
		cut  bool
	}{{"peer refuses", false}, {"peer dies partway", true}} {
		t.Run(tc.name, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), openFDs()
			failed := workerReplications.With("failed").Value()
			peer, stop := fakeReplicaPeer(t, map[int]bool{1: true, 2: true, 5: true, 6: true}, tc.cut)
			master, err := NewMaster(mustRegistry(t), MasterConfig{TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := master.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var workers []*Worker
			for i := 0; i < 2; i++ {
				w, err := NewWorker(mustRegistry(t))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Start(addr); err != nil {
					t.Fatal(err)
				}
				workers = append(workers, w)
			}
			waitIdle(t, master, 2) // so each worker takes a batch
			// The peer joins the replica ring only: some worker's next
			// live shuffle address is the peer's.
			master.addFetchAddr(peer)
			got, stats, err := master.Run(context.Background(), "wordcount", lines, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("output diverged from the local reference")
			}
			if stats.Completed != 8 || stats.Reassignments != 0 {
				t.Errorf("Completed %d, Reassignments %d; want 8 and 0", stats.Completed, stats.Reassignments)
			}
			if workerReplications.With("failed").Value() == failed {
				t.Error("no push failed: the peer took every set")
			}
			master.Close()
			for _, w := range workers {
				w.Stop()
			}
			stop()
			settled(t, goroutines, fds)
		})
	}
}

// TestBatchSlowShardAnswersAlone: a shard that runs past flushAfter is
// answered before its mate starts, so a slow shard does not hold back the
// answer of a finished one ahead of it in the frame.
func TestBatchSlowShardAnswersAlone(t *testing.T) {
	w, err := NewWorker(sleeperRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	w.reducers = 1
	w.store.setReducers(1)
	master, worker := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		w.serve(newConn(worker))
	}()
	c := newConn(master)
	specs := []taskSpec{
		{Job: "sleeper", TaskID: 0, Records: []string{"a:50"}},
		{Job: "sleeper", TaskID: 1, Records: []string{"b:500"}},
	}
	start := time.Now()
	if err := c.send(message{Type: "taskbatch", Batch: specs, Run: "sleeper#1"}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		reply, err := c.recv(5 * time.Second)
		if err != nil || reply.Type != "mapdone" || reply.TaskID != i {
			t.Fatalf("answer %d: %+v, %v; want shard %d's mapdone", i, reply, err, i)
		}
		if i == 0 {
			if wait := time.Since(start); wait >= 400*time.Millisecond {
				t.Errorf("shard 0's answer took %v: it waited on shard 1", wait)
			}
		}
	}
	_ = c.close()
	<-served
	w.Stop()
}
