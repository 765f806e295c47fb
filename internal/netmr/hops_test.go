package netmr

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A small job's critical path: every hop carries what is ready. The loop
// applies queued reports before it dispatches, a reduce launch's queued
// location updates leave as one morelocs frame, and a replica push is
// answered in one write.

// writeCounter counts the writes made on a connection; a vectored write
// of several frames is one.
type writeCounter struct {
	net.Conn
	writes *atomic.Int32
}

func (c writeCounter) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func (c writeCounter) WriteBuffers(v net.Buffers) (int64, error) {
	c.writes.Add(1)
	return v.WriteTo(c.Conn)
}

// countedPeer serves w's shuffle plane on a listener of its own whose
// connections count their writes. stop closes it and waits for its
// goroutines.
func countedPeer(t *testing.T, w *Worker, writes *atomic.Int32) (addr string, stop func()) {
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
				w.serveFetch(writeCounter{Conn: raw, writes: writes})
			}()
		}
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		wg.Wait()
	}
}

// answerBatch maps four shards on a fresh worker and answers them
// together with rep as the replica peer, returning the mapdones as the
// master reads them.
func answerBatch(t *testing.T, lines []string, rep string) ([]taskSpec, []message) {
	t.Helper()
	w, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	w.reducers = 2
	w.store.setReducers(2)
	specs := make([]taskSpec, 4)
	replies := make([]message, len(specs))
	for i := range specs {
		specs[i] = taskSpec{Job: "wordcount", TaskID: i, Records: lines[i*10 : (i+1)*10]}
		reply, ok := w.mapShard(&specs[i], "wordcount#1", "", 0)
		if !ok || reply.Type != "mapdone" {
			t.Fatalf("shard %d: %+v", i, reply)
		}
		replies[i] = reply
	}
	master, worker := net.Pipe()
	defer master.Close()
	got := make(chan []message, 1)
	go func() {
		c := newConn(master)
		var out []message
		for range specs {
			m, err := c.recv(5 * time.Second)
			if err != nil {
				break
			}
			out = append(out, m)
		}
		got <- out
	}()
	if !w.answer(newConn(worker), &message{Run: "wordcount#1", Rep: rep}, replies)() {
		t.Fatal("answer failed")
	}
	out := <-got
	if len(out) != len(specs) {
		t.Fatalf("master read %d mapdones, want %d", len(out), len(specs))
	}
	return specs, out
}

// TestReplicaPushAnsweredInOneWrite: a four-shard answer's push reaches
// the mapper as one write of the peer, whether the peer stores every set
// or refuses them all because it has left the run; the mapdones of
// refused sets name no replica, and no mapdone carries a set.
func TestReplicaPushAnsweredInOneWrite(t *testing.T) {
	lines := testLines(t, 40)
	for _, tc := range []struct {
		name    string
		runLeft bool
	}{{"stored", false}, {"run left", true}} {
		t.Run(tc.name, func(t *testing.T) {
			peer, err := NewWorker(mustRegistry(t))
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Stop()
			if tc.runLeft {
				peer.store.release("wordcount#1")
			}
			var writes atomic.Int32
			addr, stop := countedPeer(t, peer, &writes)
			defer stop()
			stored := workerReplicasStored.Value()
			specs, mapdones := answerBatch(t, lines, addr)
			if n := writes.Load(); n != 1 {
				t.Errorf("the peer answered the push in %d writes, want 1", n)
			}
			for i, d := range mapdones {
				switch {
				case d.Type != "mapdone" || d.TaskID != i:
					t.Errorf("answer %d: %q for task %d", i, d.Type, d.TaskID)
				case d.Parts != nil:
					t.Errorf("shard %d: %d inline parts; want none", i, len(d.Parts))
				case !tc.runLeft && d.Rep != addr:
					t.Errorf("shard %d: Rep %q; want it replicated to %s", i, d.Rep, addr)
				case tc.runLeft && d.Rep != "":
					t.Errorf("shard %d: Rep %q; want no replica named", i, d.Rep)
				}
			}
			want := float64(len(specs))
			if tc.runLeft {
				want = 0
			}
			if got := workerReplicasStored.Value() - stored; got != want {
				t.Errorf("peer stored %v replicas, want %v", got, want)
			}
		})
	}
}

// unspillableDir is a spill root that cannot be created: a path under a
// regular file (permission bits would not stop root).
func unspillableDir(t *testing.T) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(file, "spill")
}

// TestSpillFailedReplicaAcknowledged: a peer whose put only failed to
// spill holds the set resident and acknowledges it, so the mapdone names
// the replica and carries nothing inline; a cluster whose workers all
// fail to spill still computes the reference output.
func TestSpillFailedReplicaAcknowledged(t *testing.T) {
	dir := unspillableDir(t)
	peer, err := NewWorker(mustRegistry(t), WithWorkerConfig(WorkerConfig{SpillBudget: 1, SpillDir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Stop()
	addr, err := peer.startFetchListener()
	if err != nil {
		t.Fatal(err)
	}
	spillErrs := workerSpillErrors.Value()
	_, mapdones := answerBatch(t, testLines(t, 40), addr)
	for i, d := range mapdones {
		if d.Rep != addr || d.Parts != nil {
			t.Errorf("shard %d: Rep %q with %d inline parts; want it replicated to %s", i, d.Rep, len(d.Parts), addr)
		}
	}
	if workerSpillErrors.Value() == spillErrs {
		t.Error("the spill error counter did not rise")
	}
	if held := heldTasks(peer); len(held) != len(mapdones) {
		t.Errorf("peer holds %d sets, want %d", len(held), len(mapdones))
	}

	lines := testLines(t, 400)
	got, _, _ := runPipelineCluster(t, mustRegistry(t), MasterConfig{Reducers: 2}, WorkerConfig{SpillBudget: 1, SpillDir: dir}, 2, 8, lines, nil)
	if want := runShard(wordCountJob(), lines, new(shardScratch)); !reflect.DeepEqual(got, want) {
		t.Error("output diverged from the reference")
	}
}

// reduceOverPipe runs dispatchReduce for partition 0 against a fake
// worker on a net.Pipe, the stream's updates all queued (and the stream
// closed) before the launch starts. The fake reads the reducetask and
// then every frame until one is an abort or names all of tasks, answers
// with reply, and returns what it read after the reducetask; report is
// the launch's report.
func reduceOverPipe(t *testing.T, updates []message, tasks int, reply message) (frames []message, report any) {
	t.Helper()
	m, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	r := m.newJobRun("wordcount", testLines(t, 40), tasks, &stats)
	stream := make(chan message, len(updates))
	for _, u := range updates {
		stream <- u
	}
	close(stream)
	master, worker := net.Pipe()
	defer master.Close()
	defer worker.Close()
	go r.dispatchReduce(&workerHandle{id: "fake", c: newConn(master)}, &reduceLaunch{t: shardTask{id: 0, ph: r.reduces},
		fr: message{Type: "reducetask", Job: "wordcount", Run: r.runID, Total: tasks}, launch: -1, s: &locStream{updates: stream}})
	c := newConn(worker)
	if first, err := c.recv(5 * time.Second); err != nil || first.Type != "reducetask" {
		t.Fatalf("first frame %+v, %v; want the reducetask", first, err)
	}
	named := 0
	for named < tasks {
		f, err := c.recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		if f.Message == "abort" {
			break
		}
		for _, l := range f.Locs {
			named += len(l.Tasks)
		}
	}
	if err := c.send(reply, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-r.results:
		report = d
	case fl := <-r.fails:
		report = fl
	case <-time.After(5 * time.Second):
		t.Fatal("the launch never reported")
	}
	return frames, report
}

// update is the morelocs frame accept streams for map task id stored at
// addr with its replica at rep.
func update(id int, addr, rep string) message {
	return message{Type: "morelocs", TaskID: 0, Locs: []fetchLoc{{Addr: addr, Tasks: []int{id}}},
		Reps: []fetchLoc{{Addr: rep, Tasks: []int{id}}}}
}

// TestReduceLaunchCoalescesUpdates: a reduce launch sends the location
// updates queued on its stream as one morelocs frame, each holder once,
// and an abort queued behind them alone and last.
func TestReduceLaunchCoalescesUpdates(t *testing.T) {
	t.Run("four updates", func(t *testing.T) {
		frames, report := reduceOverPipe(t, []message{
			update(2, "a", "b"), update(0, "b", "a"), update(3, "a", "b"), update(1, "b", "a"),
		}, 4, message{Type: "result", TaskID: 0})
		if len(frames) != 1 || frames[0].Type != "morelocs" {
			t.Fatalf("frames after the reducetask %+v; want one morelocs", frames)
		}
		if want := []fetchLoc{{Addr: "a", Tasks: []int{2, 3}}, {Addr: "b", Tasks: []int{0, 1}}}; !reflect.DeepEqual(frames[0].Locs, want) {
			t.Errorf("Locs %v, want %v", frames[0].Locs, want)
		}
		if want := []fetchLoc{{Addr: "b", Tasks: []int{2, 3}}, {Addr: "a", Tasks: []int{0, 1}}}; !reflect.DeepEqual(frames[0].Reps, want) {
			t.Errorf("Reps %v, want %v", frames[0].Reps, want)
		}
		if d, ok := report.(launchDone); !ok || d.task.id != 0 {
			t.Errorf("report %+v; want partition 0 done", report)
		}
	})
	t.Run("update then abort", func(t *testing.T) {
		frames, report := reduceOverPipe(t, []message{
			update(1, "a", "b"), {Type: "morelocs", TaskID: 0, Message: "abort"},
		}, 4, message{Type: "error", TaskID: 0, Message: "reduce launch called back"})
		if len(frames) != 2 || frames[0].Message != "" || !slices.Equal(frames[0].Locs[0].Tasks, []int{1}) || frames[1].Message != "abort" || frames[1].Locs != nil {
			t.Fatalf("frames after the reducetask %+v; want task 1's morelocs, then the abort alone", frames)
		}
		if fl, ok := report.(launchFail); !ok || !errors.Is(fl.err, errCalledBack) {
			t.Errorf("report %+v; want the call-back", report)
		}
	})
}

// TestReportsApplyBeforeDispatch: map launches that report before their
// worker rejoins the pool are all applied before the loop hands that
// worker on, so the reduce tasks of a job with no map tail launch at the
// barrier with their whole plan, never before it.
func TestReportsApplyBeforeDispatch(t *testing.T) {
	for run := 0; run < 50; run++ {
		m, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: 2})
		if err != nil {
			t.Fatal(err)
		}
		m.count.Store(2)
		m.idle <- &workerHandle{id: "a"}
		m.idle <- &workerHandle{id: "b"}
		var stats Stats
		r := m.newJobRun("wordcount", testLines(t, 80), 8, &stats)
		r.maps.launch = func(w *workerHandle, batch []shardTask, _ []int) {
			for _, task := range batch {
				r.results <- launchDone{task: task, fetchAddr: w.id, launch: -1}
			}
			m.idle <- w
		}
		early := 0
		r.reduces.launch = func(w *workerHandle, batch []shardTask, _ []int) {
			if r.barrier.IsZero() {
				early++
			}
			r.results <- launchDone{task: batch[0], launch: -1}
			m.idle <- w
		}
		if err := m.schedule(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		if early > 0 {
			t.Fatalf("run %d: %d reduce task(s) launched before the barrier with every map report queued", run, early)
		}
	}
}

// TestMapLaunchReportsBeforeRejoining: a map launch's worker rejoins the
// idle pool only after the launch's last report, so the loop that draws
// the worker has the report to apply first. Both channels are unbuffered
// here, so the test sees the launch's sends in the order it makes them.
func TestMapLaunchReportsBeforeRejoining(t *testing.T) {
	m, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.idle = make(chan *workerHandle)
	var stats Stats
	r := m.newJobRun("wordcount", testLines(t, 40), 2, &stats)
	r.results = make(chan launchDone)
	master, worker := net.Pipe()
	defer master.Close()
	defer worker.Close()
	go r.dispatchMap(&workerHandle{id: "fake", c: newConn(master), fetch: "a"}, []shardTask{{id: 0, ph: r.maps}, {id: 1, ph: r.maps}}, nil, nil)
	c := newConn(worker)
	if f, err := c.recv(5 * time.Second); err != nil || f.Type != "taskbatch" {
		t.Fatalf("frame %+v, %v; want the taskbatch", f, err)
	}
	sent := make(chan error, 1)
	go func() {
		sent <- c.sendFrames([]message{{Type: "mapdone", TaskID: 0}, {Type: "mapdone", TaskID: 1}}, 5*time.Second)
	}()
	var events []string
	for len(events) < 3 {
		select {
		case <-r.results:
			events = append(events, "report")
		case <-m.idle:
			events = append(events, "idle")
		case <-time.After(5 * time.Second):
			t.Fatalf("events %v, then nothing", events)
		}
	}
	if want := []string{"report", "report", "idle"}; !slices.Equal(events, want) {
		t.Errorf("events %v, want %v", events, want)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
