package netmr

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// The reduce output stream: a reducer sends its folded partition as
// chunks of about chunkBytes, the master takes chunk k of a partition
// once, and every later copy of it, from a retry, a speculative clone or
// a re-fold, must equal what it took. The tests below break a stream
// every way a launch can and check the output against the oracle with
// every key in it once.

// wideLines is n records of one distinct word each, width bytes long and
// in ascending order, so wordcount's output is n keys of width bytes.
func wideLines(n, width int) []string {
	rng := rand.New(rand.NewSource(33))
	pool := make([]byte, 1<<20)
	for i := range pool {
		pool[i] = byte('a' + rng.Intn(26))
	}
	lines := make([]string, n)
	for i := range lines {
		at := rng.Intn(len(pool) - width)
		lines[i] = fmt.Sprintf("%08d", i) + string(pool[at:at+width-8])
	}
	return lines
}

// relayReduce runs reduce task m on w for real and passes each frame it
// sends through edit on its way to the master: edit gets the frame's
// place in the task's output and returns the frame to send, or false to
// die there, the connection closed. It returns whether the rogue lives on.
func relayReduce(w *Worker, c *conn, m message, edit func(i int, fr message) (message, bool)) bool {
	// A launch under the map tail names the map outputs located so far and
	// is sent the rest as morelocs frames: the relay folds them into the
	// task before running it, so the pipe carries the task alone.
	for coverage(m) < m.Total {
		u, err := c.recv(30 * time.Second)
		if err != nil {
			return false
		}
		if u.Message == "abort" {
			return c.send(message{Type: "error", TaskID: m.TaskID, Message: "aborted"}, 5*time.Second) == nil
		}
		m.Locs, m.Reps = append(m.Locs, u.Locs...), append(m.Reps, u.Reps...)
	}
	near, far := net.Pipe()
	defer far.Close()
	go func() {
		w.runReduceTask(newConn(near), m, 0)
		near.Close()
	}()
	in := newConn(far)
	for i := 0; ; i++ {
		fr, err := in.recv(30 * time.Second)
		if err != nil {
			return false
		}
		fr, ok := edit(i, fr)
		if !ok {
			_ = c.close()
			return false
		}
		if c.send(fr, 5*time.Second) != nil {
			return false
		}
		if fr.Type != "chunk" {
			return true
		}
	}
}

// coverage is how many map outputs reduce task m names: the tasks of its
// locations.
func coverage(m message) int {
	n := 0
	for _, loc := range m.Locs {
		n += len(loc.Tasks)
	}
	return n
}

// relayRogues starts n rogue workers that run reduce tasks through
// relayReduce, the launch-th reduce launch of the cluster (from 1) edited
// by edit.
func relayRogues(t *testing.T, addr string, n int, edit func(launch, i int, fr message) (message, bool)) {
	t.Helper()
	var launches atomic.Int32
	for i := 0; i < n; i++ {
		rogueServe(t, addr, fmt.Sprintf("relay-%d", i), func(w *Worker, c *conn, m message) (bool, bool) {
			if m.Type != "reducetask" {
				return false, true
			}
			launch := int(launches.Add(1))
			return true, relayReduce(w, c, m, func(i int, fr message) (message, bool) { return edit(launch, i, fr) })
		})
	}
}

// checkStream asserts a run's output against the oracle, every key in it
// once, and that partition 0 travelled as at least chunks chunks.
func checkStream(t *testing.T, res *Result, want map[string]float64, chunks int) {
	t.Helper()
	if n := len(res.parts[0]); n < chunks {
		t.Fatalf("partition 0 came as %d chunk(s), want %d or more", n, chunks)
	}
	if res.Len() != len(want) {
		t.Fatalf("Len = %d, want %d: a chunk was taken twice or lost", res.Len(), len(want))
	}
	checkResult(t, res, want)
}

// TestStreamResumesAfterReducerDies: the reducer of the one partition
// dies after sending two of its chunks; the retry on the other worker
// sends them again, the master checks and skips them and takes the rest,
// and Run's union inserts each key once.
func TestStreamResumesAfterReducerDies(t *testing.T) {
	lines := wideLines(40_000, 100) // about 4 MiB of output: five chunks
	want := runShard(wordCountJob(), lines, new(shardScratch))
	for _, api := range []string{"RunResult", "Run"} {
		master, addr := startReduceCluster(t, MasterConfig{TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: 1}, 0)
		relayRogues(t, addr, 2, func(launch, i int, fr message) (message, bool) {
			return fr, launch > 1 || i < 2
		})
		waitIdle(t, master, 2)
		var stats Stats
		if api == "Run" {
			got, st, err := master.Run(context.Background(), "wordcount", lines, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Run: %d keys, want the oracle's %d", len(got), len(want))
			}
			stats = st
		} else {
			res, st, err := master.RunResult(context.Background(), "wordcount", lines, 4)
			if err != nil {
				t.Fatal(err)
			}
			checkStream(t, res, want, 4)
			stats = st
		}
		if stats.Reassignments == 0 {
			t.Errorf("%s: the reducer's death caused no reassignment", api)
		}
	}
}

// TestSpeculativeCloneSkipsDuplicateChunks: a reducer sends every chunk
// but its last and stalls; the speculative clone sends the same chunks
// again, which are checked and skipped, and wins with the result frame.
func TestSpeculativeCloneSkipsDuplicateChunks(t *testing.T) {
	lines := wideLines(50_000, 100) // two partitions of three chunks
	want := runShard(wordCountJob(), lines, new(shardScratch))
	master, addr := startReduceCluster(t, MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: 2,
		SpeculationInterval: 10 * time.Millisecond, SpeculationMinObservations: 1,
	}, 1)
	stall := make(chan struct{})
	rogueServe(t, addr, "straggler", func(w *Worker, c *conn, m message) (bool, bool) {
		if m.Type != "reducetask" {
			return false, true
		}
		return true, relayReduce(w, c, m, func(_ int, fr message) (message, bool) {
			if fr.Type == "result" {
				<-stall
			}
			return fr, true
		})
	})
	t.Cleanup(func() { close(stall) })
	waitIdle(t, master, 2) // one partition each: the straggler holds one back
	res, stats, err := master.RunResult(context.Background(), "wordcount", lines, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, res, want, 2)
	if stats.SpecWins == 0 {
		t.Errorf("no speculative clone won (%d launched)", stats.Speculations)
	}
}

// TestDifferingChunkIsRefused: the first reducer dies after two chunks;
// the retry sends a chunk 1 that is not the one taken, is refused with
// the cause and dropped; the third launch completes the stream.
func TestDifferingChunkIsRefused(t *testing.T) {
	lines := wideLines(40_000, 100)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	master, addr := startReduceCluster(t, MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: 1, MaxAttempts: 5,
	}, 0)
	relayRogues(t, addr, 3, func(launch, i int, fr message) (message, bool) {
		switch {
		case launch == 1:
			return fr, i < 2
		case launch == 2 && i == 1:
			m := fr.Folded.toMap()
			for k := range m {
				m[k]++
			}
			fr.Folded = sectionFromMap(m)
		}
		return fr, true
	})
	waitIdle(t, master, 3)
	res, stats, err := master.RunResult(context.Background(), "wordcount", lines, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, res, want, 4)
	if stats.Reassignments < 2 {
		t.Errorf("Reassignments = %d, want 2 (the death, the refused chunk)", stats.Reassignments)
	}
}

// TestRefoldResendsCheckedChunks is tera-spill's path: the reducer streams
// its own spilled sections, and the last block of its own output fails
// its checksum after chunks have gone out. The fold runs again from the
// re-gather and sends its chunks again from the first; the master, here
// the outputs the dispatch hands every frame to, checks each against the
// one it took, and the stream it keeps is the oracle's.
func TestRefoldResendsCheckedChunks(t *testing.T) {
	const run = "wc#1"
	rng := rand.New(rand.NewSource(34))
	sets := make([][]partitionPartial, 4)
	for task := range sets {
		m := map[string]float64{}
		for len(m) < 7000 {
			m[randomKey(rng, 100)] = float64(1 + rng.Intn(5))
		}
		sets[task] = []partitionPartial{{ID: 0, Partial: sectionFromMap(m)}}
	}
	dir := t.TempDir()
	peer := storeWorker(t, run, sets, 0, "", 0, 1, 2, 3)
	reducer := storeWorker(t, run, sets, 1, dir, 3) // its own output is on disk
	f, starts := blockStarts(t, reducer, 3, 0)
	flipByteAt(t, f, starts[len(starts)-1]+blockHeaderMax+7)

	near, far := net.Pipe()
	defer far.Close()
	go func() {
		reducer.runReduceTask(newConn(near), message{Type: "reducetask", Job: "wordcount", Run: run,
			Locs: []fetchLoc{{Addr: peer.fetchAddr, Tasks: []int{0, 1, 2}}, {Addr: reducer.fetchAddr, Tasks: []int{3}}},
			Reps: []fetchLoc{{Addr: peer.fetchAddr, Tasks: []int{3}}}}, 0)
		near.Close()
	}()
	o, in := newOutputs(1, 1<<30), newConn(far)
	sent := 0
	for {
		fr, err := in.recv(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type != "chunk" && fr.Type != "result" {
			t.Fatalf("%q frame (%s)", fr.Type, fr.Message)
		}
		if err := o.admit(0, fr.Total, fr.Folded, fr.Type == "result", fr.Bytes); err != nil {
			t.Fatal(err)
		}
		if fr.Type == "result" {
			if fr.Failovers != 2 {
				t.Errorf("%d failovers, want 2 (the re-gather, the reroute)", fr.Failovers)
			}
			break
		}
		sent++
	}
	if taken := len(o.chunks[0]) - 1; sent <= taken {
		t.Fatalf("%d chunk frames for a stream of %d: the re-fold sent nothing again", sent, taken)
	}
	want := foldOf(t, sets, 0).toMap()
	checkStream(t, &Result{parts: o.chunks}, want, 3)
}

// TestPartitionLargerThanAFrame: one reduce partition's output is larger
// than maxFrameBytes, which one result frame could not carry. It leaves
// in chunks, none over chunkBytes plus one pair, and the job succeeds.
func TestPartitionLargerThanAFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("moves about 70 MB through a cluster")
	}
	const n, width = 70_000, 1000
	lines := wideLines(n, width)
	master, _ := startReduceCluster(t, MasterConfig{TaskTimeout: 30 * time.Second, JobTimeout: 2 * time.Minute, Reducers: 1}, 2)
	res, _, err := master.RunResult(context.Background(), "wordcount", lines, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for k, chunk := range res.parts[0] {
		if len(chunk) > chunkBytes+2+width+8 {
			t.Errorf("chunk %d is %d bytes, over chunkBytes plus one pair", k, len(chunk))
		}
		total += len(chunk)
	}
	if total <= maxFrameBytes {
		t.Fatalf("fixture: the partition is %d bytes, not over the %d frame cap", total, maxFrameBytes)
	}
	if !sort.StringsAreSorted(lines) {
		t.Fatal("fixture: the lines are not in key order")
	}
	if res.Len() != n {
		t.Fatalf("Len = %d, want %d", res.Len(), n)
	}
	i := 0
	res.Each(func(k string, v float64) {
		if k != lines[i] || v != 1 {
			t.Fatalf("pair %d = (%.20q…, %v), want (%.20q…, 1)", i, k, v, lines[i])
		}
		i++
	})
	if v, ok := res.Lookup(lines[n/2]); !ok || v != 1 {
		t.Errorf("Lookup of a key in the middle = (%v, %v), want (1, true)", v, ok)
	}
}

// TestOutputsAdmit: what the master takes into a partition's stream and
// what it refuses, whichever launch sends it: a copy of a chunk taken is
// skipped, and a chunk that differs from the one taken, skips ahead,
// follows the end, goes back in key order, is empty mid-stream or ends
// the stream where it goes on is the launch's error.
func TestOutputsAdmit(t *testing.T) {
	a, b, c := sectionFromMap(map[string]float64{"a": 1, "b": 2}), sectionFromMap(map[string]float64{"c": 3}), sectionFromMap(map[string]float64{"d": 4})
	type frame struct {
		k    int
		sec  section
		last bool
		ok   bool
	}
	for name, frames := range map[string][]frame{
		"whole stream, copies skipped": {{0, a, false, true}, {0, a, false, true}, {1, b, false, true}, {0, a, false, true}, {2, c, true, true}, {1, b, false, true}, {2, c, true, true}},
		"one frame":                    {{0, a, true, true}, {0, a, true, true}},
		"empty partition":              {{0, "", true, true}},
		"other bytes":                  {{0, a, false, true}, {0, b, false, false}},
		"skips ahead":                  {{0, a, false, true}, {2, c, true, false}},
		"after the end":                {{0, a, true, true}, {1, b, true, false}},
		"ends early":                   {{0, a, false, true}, {1, b, false, true}, {1, b, true, false}},
		"goes on past the end":         {{0, a, false, true}, {1, b, true, true}, {1, b, false, false}},
		"back in key order":            {{0, b, false, true}, {1, a, true, false}},
		"empty mid-stream":             {{0, "", false, false}},
		"empty after a chunk":          {{0, a, false, true}, {1, "", true, false}},
	} {
		o := newOutputs(1, 100)
		for i, f := range frames {
			if err := o.admit(0, f.k, f.sec, f.last, 0); (err == nil) != f.ok {
				t.Errorf("%s: frame %d (chunk %d): err %v, want ok=%v", name, i, f.k, err, f.ok)
			}
		}
	}
}
