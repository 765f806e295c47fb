package netmr

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// checkResult asserts every reader of res against the oracle map: Len,
// Each in globally ascending key order, Lookup of every key (so of each
// partition's first and last slot) and of keys that are absent, and Map.
func checkResult(t *testing.T, res *Result, want map[string]float64) {
	t.Helper()
	if res.Len() != len(want) {
		t.Errorf("Len = %d, want %d", res.Len(), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	res.Each(func(k string, v float64) {
		if i >= len(keys) || k != keys[i] || v != want[k] {
			t.Fatalf("Each visit %d = (%q, %v), out of order or not the oracle's", i, k, v)
		}
		i++
	})
	if i != len(keys) {
		t.Errorf("Each visited %d keys, want %d", i, len(keys))
	}
	for _, k := range keys {
		if v, ok := res.Lookup(k); !ok || v != want[k] {
			t.Errorf("Lookup(%q) = (%v, %v), want %v", k, v, ok, want[k])
		}
		for _, absent := range []string{k + "\x00", k[:len(k)-1] + "\x00"} {
			if _, in := want[absent]; in {
				continue
			}
			if v, ok := res.Lookup(absent); ok {
				t.Errorf("Lookup(%q) found %v for a key that is not there", absent, v)
			}
		}
	}
	if _, ok := res.Lookup(""); ok {
		t.Error("Lookup of the empty key succeeded")
	}
	got := res.Map()
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Errorf("Map() differs from the oracle (%d keys, want %d)", len(got), len(want))
	}
}

// sectionedResult splits m by the reduce hash into the R partitions a
// distributed reduce hands the master, each cut into chunks of at most
// per pairs (0: one chunk) in key order; an empty partition is one empty
// chunk.
func sectionedResult(m map[string]float64, R, per int) *Result {
	keys := make([][]string, R)
	for k := range m {
		p := partitionIndex(k, R)
		keys[p] = append(keys[p], k)
	}
	parts := make([][]section, R)
	for p, ks := range keys {
		sort.Strings(ks)
		for len(parts[p]) == 0 || len(ks) > 0 {
			n := len(ks)
			if per > 0 {
				n = min(n, per)
			}
			chunk := map[string]float64{}
			for _, k := range ks[:n] {
				chunk[k] = m[k]
			}
			parts[p], ks = append(parts[p], sectionFromMap(chunk)), ks[n:]
		}
	}
	return &Result{parts: parts}
}

// TestResultAgreesWithSerialMerge: over R partitions — empty ones, an
// empty job and single-key partitions included — and over chunks of one
// pair, of a few and of the whole partition, every reader of a Result
// agrees with the serialMerge oracle.
func TestResultAgreesWithSerialMerge(t *testing.T) {
	job := wordCountJob()
	partials := func(tasks, keys int) []map[string]float64 {
		out := make([]map[string]float64, tasks)
		for task := range out {
			out[task] = map[string]float64{}
			for k := task; k < keys; k += 1 + task%3 {
				out[task][fmt.Sprintf("key-%04d", k*7919%keys)] = float64(task + k)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		in   []map[string]float64
	}{
		{"empty-job", nil},
		{"three-keys", partials(2, 3)}, // fewer keys than partitions at R = 5
		{"many-keys", partials(7, 900)},
	} {
		want := serialMerge(job, tc.in)
		for _, R := range []int{1, 2, 5} {
			for _, per := range []int{0, 1, 7} {
				name := fmt.Sprintf("%s/R=%d", tc.name, R)
				if per > 0 {
					name += fmt.Sprintf("/per=%d", per)
				}
				t.Run(name, func(t *testing.T) {
					checkResult(t, sectionedResult(want, R, per), want)
				})
			}
		}
	}
}

// TestRunResultEveryMergePath: RunResult's sections answer like Run's
// map, at a pinned reducer count and at the GOMAXPROCS default.
func TestRunResultEveryMergePath(t *testing.T) {
	lines := testLines(t, 400)
	want := runShard(wordCountJob(), lines, new(shardScratch))
	for _, tc := range []struct {
		name string
		R    int
	}{
		{"distributed-reduce", 3},
		{"default", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := MasterConfig{TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, Reducers: tc.R}
			master, _ := startReduceCluster(t, cfg, 2)
			res, stats, err := master.RunResult(context.Background(), "wordcount", lines, 6)
			if err != nil {
				t.Fatal(err)
			}
			if R := master.cfg.Reducers; len(res.parts) != R || stats.ReduceTasks != R {
				t.Fatalf("sections held = %d, reduce tasks = %d; want %d", len(res.parts), stats.ReduceTasks, R)
			}
			checkResult(t, res, want)
			got, _, err := master.Run(context.Background(), "wordcount", lines, 6)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("Run's map diverged from the reference")
			}
		})
	}
}

// TestRecvOwnsFrameBuffer pins the zero-copy decode's ownership rule:
// what a received message points into is that frame's own buffer, so
// later frames on the same conn — one compressed, one stored, of other
// sizes — leave every section and string of it untouched. Run under
// -race, a reused or pooled buffer would also show as a write racing
// these reads.
func TestRecvOwnsFrameBuffer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	secs := teraSections(3, 40)
	compressible := map[string]float64{}
	for i := 0; i < 2000; i++ {
		compressible[fmt.Sprintf("the-same-long-shared-prefix-%05d", i)] = float64(i)
	}
	frames := []message{
		{Type: "replicate", Run: "own#1", TaskID: 7, Reducers: 3, Parts: secs},
		{Type: "fetchresult", TaskID: 1, Parts: []partitionPartial{{ID: 0, Partial: sectionFromMap(compressible)}}},
		{Type: "replicack", TaskID: 7},
	}
	sent := make(chan error, 1)
	go func() {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			sent <- err
			return
		}
		defer raw.Close()
		c := newConn(raw)
		for _, m := range frames {
			if err := c.send(m, 5*time.Second); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := newConn(raw)

	first, err := c.recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if first.Type != "replicate" || len(first.Parts) != len(secs) {
		t.Fatalf("first frame = %q with %d parts", first.Type, len(first.Parts))
	}
	wantRun := strings.Clone(first.Run)
	wantSecs := make([]string, len(first.Parts))
	for i, p := range first.Parts {
		wantSecs[i] = strings.Clone(string(p.Partial))
	}
	for i, wantCompressed := range []bool{true, false} {
		m, err := c.recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != frames[i+1].Type {
			t.Fatalf("frame %d = %q, want %q", i+1, m.Type, frames[i+1].Type)
		}
		if compressed := c.lastRawLen > c.lastFrameLen; compressed != wantCompressed {
			t.Fatalf("frame %d compressed = %v, want %v", i+1, compressed, wantCompressed)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if first.Run != wantRun {
		t.Errorf("Run changed to %q after later frames", first.Run)
	}
	for i, p := range first.Parts {
		if string(p.Partial) != wantSecs[i] || p.Partial != secs[i].Partial {
			t.Errorf("section %d changed after later frames", i)
		}
	}
}

// TestUnionPresizeCoversExactCounts: a partition that arrived whole
// counts its pairs exactly, and the union's map is presized for all of
// them even where a job emits more keys than it read records (about
// 1,000 distinct words from smalljobs' 400 lines); only a projection is
// capped at the input's records.
func TestUnionPresizeCoversExactCounts(t *testing.T) {
	const records = 400
	keys := func(p, n int) section {
		m := make(map[string]float64, n)
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("p%d-word%04d", p, i)] = 1
		}
		return sectionFromMap(m)
	}
	o := newOutputs(2, records)
	for p, n := range []int{560, 440} {
		if err := o.admit(p, 0, keys(p, n), true, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.presize(); got < 1000 {
		t.Errorf("presize %d for two whole partitions of 1000 pairs in all, input %d records", got, records)
	}
	// Heard from one whole partition of 560: scaled to both.
	o = newOutputs(2, records)
	if err := o.admit(0, 0, keys(0, 560), true, 0); err != nil {
		t.Fatal(err)
	}
	if got := o.presize(); got != 1120 {
		t.Errorf("presize %d from one whole partition of 560 pairs, want 1120", got)
	}
	// A first chunk projecting an absurd output: the projection is capped
	// at the input's records, the chunk's own pairs are not.
	o = newOutputs(2, records)
	if err := o.admit(0, 0, keys(0, 500), false, 1<<50); err != nil {
		t.Fatal(err)
	}
	if got := o.presize(); got != 1000 {
		t.Errorf("presize %d from a 500-pair chunk projecting 2^50 bytes, want 1000 (its own count, scaled)", got)
	}
	o = newOutputs(2, records)
	if err := o.admit(0, 0, keys(0, 100), false, 1<<50); err != nil {
		t.Fatal(err)
	}
	if got := o.presize(); got != 2*records {
		t.Errorf("presize %d from a 100-pair chunk projecting 2^50 bytes, want %d (the cap, scaled)", got, 2*records)
	}
}
