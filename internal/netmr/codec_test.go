package netmr

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// codecMessages is a property corpus covering every field combination
// the protocol produces, plus adversarial shapes (empty strings, empty
// slices, negative ints, huge keys).
func codecMessages() []message {
	return []message{
		{Type: "ping"},
		{Type: "pong"},
		{Type: "hello", ID: "127.0.0.1:5555", Jobs: []string{"a", "b"}},
		{Type: "helloack"},
		{Type: "helloack", Reducers: 8},
		{Type: "taskbatch", Batch: []taskSpec{{Job: "wordcount", TaskID: 3, Attempt: 1, Records: []string{"the quick", "brown fox", ""}}}},
		{Type: "taskbatch", Batch: []taskSpec{{Job: "", TaskID: -7, Attempt: 0, Records: []string{strings.Repeat("x", 4096)}}}},
		{Type: "result", TaskID: 12, Attempt: 2, Folded: sectionFromMap(map[string]float64{
			"alpha": 1, "beta": -2.5, "": 3.25, "πκλ": 1e-300, "big": math.MaxFloat64,
		})},
		{Type: "error", TaskID: 9, Message: `unknown job "nope"`},
		{Type: "taskbatch", Batch: []taskSpec{
			{Job: "wc", TaskID: 0, Records: []string{"r0"}},
			{Job: "wc", TaskID: 5, Attempt: 2, Records: nil},
			{Job: "other", TaskID: -1, Records: []string{"a", "b", "c"}},
		}},
		{Type: "replicate", TaskID: 7, Run: "wc#2", Reducers: 4, Parts: []partitionPartial{
			{ID: 0, Partial: sectionFromMap(map[string]float64{"alpha": 2, "": -1})},
			{ID: 3, Partial: sectionFromMap(map[string]float64{"πκλ": 1e-300})},
		}},
		{Type: "replicate", TaskID: -2, Parts: []partitionPartial{
			{ID: 1, Partial: ""},
		}},
		{Type: "taskbatch", Batch: []taskSpec{{Job: "wc", TaskID: 1, Records: []string{"traced"}}}, Trace: "wc-3"},
		{Type: "result", TaskID: 4, Attempt: 1, Folded: sectionFromMap(map[string]float64{"k": 2}), Trace: "wc-3", Spans: []spanSummary{
			{Phase: "decode", Start: 0, End: 0.001},
			{Phase: "map", Start: 0.001, End: 0.25},
			{Phase: "", Start: -1.5, End: math.MaxFloat64},
		}},
		{Type: "mapdone", TaskID: 7, Trace: "", Spans: []spanSummary{{Phase: "encode", Start: 1, End: 1}}, Rep: "127.0.0.1:7002"},
		{Type: "hello", ID: "127.0.0.1:5556", Jobs: []string{"wc"}, Fetch: "127.0.0.1:7001"},
		{Type: "helloack", Reducers: 4, ShuffleMs: 30000},
		{Type: "taskbatch", Batch: []taskSpec{{Job: "wc", TaskID: 2, Records: []string{"persist me"}}}, Run: "wc#1"},
		{Type: "mapdone", TaskID: 2, Attempt: 1, Run: "wc#1"},
		{Type: "reducetask", Job: "wc", TaskID: 1, Attempt: 0, Run: "wc#1",
			Locs: []fetchLoc{
				{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}},
				{Addr: "127.0.0.1:7002", Tasks: []int{1}},
				{Addr: "", Tasks: nil},
			},
			Total: 3},
		{Type: "fetch", Run: "wc#1", TaskID: 0, Tasks: []int{0, 1, 2, -5}},
		{Type: "fetchresult", TaskID: 0, Parts: []partitionPartial{
			{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1})},
			{ID: 2, Partial: ""},
		}},
		{Type: "result", TaskID: 1, Attempt: 2, Folded: sectionFromMap(map[string]float64{"folded": 9}), Bytes: 123456789},
		{Type: "reducetask", Job: "wc", TaskID: 0, Run: "wc#2",
			Locs:  []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{0}}},
			Reps:  []fetchLoc{{Addr: "127.0.0.1:7003", Tasks: []int{0}}, {Addr: "", Tasks: nil}},
			Total: 8},
		{Type: "morelocs", Run: "wc#2", TaskID: 3,
			Locs: []fetchLoc{{Addr: "127.0.0.1:7002", Tasks: []int{5}}},
			Reps: []fetchLoc{{Addr: "127.0.0.1:7004", Tasks: []int{5}}}},
		{Type: "morelocs", Run: "wc#2", TaskID: 1, Message: "abort"},
		{Type: "result", TaskID: 2, Attempt: 1, Folded: sectionFromMap(map[string]float64{"f": 1}), Bytes: 77, Failovers: 3},
		{Type: "release", Run: "wc#2"},
		{Type: "chunk", TaskID: 3, Attempt: 1, Folded: sectionFromMap(map[string]float64{"c0": 1, "c1": 2}), Total: 2, Bytes: 5 << 20},
	}
}

// encodeBinary is m's contiguous frame: every section copied in, the one
// segment the encoder then returns.
func encodeBinary(t testing.TB, m message) []byte {
	t.Helper()
	var e frameEnc
	segs, err := e.encode(&m, nil, math.MaxInt)
	if err != nil {
		t.Fatalf("encode(%+v): %v", m, err)
	}
	if len(segs) != 1 {
		t.Fatalf("contiguous encode of %q gave %d segments", m.Type, len(segs))
	}
	return segs[0]
}

// frameBody strips the uvarint length prefix the way recv does, leaving
// the checksummed body decodeFrame takes.
func frameBody(t testing.TB, frame []byte) []byte {
	t.Helper()
	n, k := binary.Uvarint(frame)
	if k <= 0 || int(n) != len(frame)-k {
		t.Fatalf("length prefix says %d of a %d-byte frame", n, len(frame))
	}
	return bytes.Clone(frame[k:]) // decodeFrame keeps the body it is given
}

func decodeBinary(t *testing.T, frame []byte) message {
	t.Helper()
	var m message
	if err := decodeFrame(frameBody(t, frame), &m); err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	return m
}

// normalize maps a hand-written message's empty slices onto the
// decoder's nil convention so the two can be DeepEqual'd.
func normalize(m message) message {
	if len(m.Jobs) == 0 {
		m.Jobs = nil
	}
	if len(m.Batch) == 0 {
		m.Batch = nil
	}
	for i := range m.Batch {
		if len(m.Batch[i].Records) == 0 {
			m.Batch[i].Records = nil
		}
	}
	if len(m.Parts) == 0 {
		m.Parts = nil
	}
	if len(m.Spans) == 0 {
		m.Spans = nil
	}
	if len(m.Tasks) == 0 {
		m.Tasks = nil
	}
	if len(m.Locs) == 0 {
		m.Locs = nil
	}
	for i := range m.Locs {
		if len(m.Locs[i].Tasks) == 0 {
			m.Locs[i].Tasks = nil
		}
	}
	if len(m.Reps) == 0 {
		m.Reps = nil
	}
	for i := range m.Reps {
		if len(m.Reps[i].Tasks) == 0 {
			m.Reps[i].Tasks = nil
		}
	}
	return m
}

// TestCodecRoundTrip is the round-trip property test: every corpus
// message must come back from the wire as itself.
func TestCodecRoundTrip(t *testing.T) {
	for _, m := range codecMessages() {
		got := decodeBinary(t, encodeBinary(t, m))
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("round trip of %q is lossy:\n  in: %+v\n out: %+v", m.Type, m, got)
		}
	}
}

// TestBinaryCodecNonFiniteValues: a section must carry NaN/±Inf
// bit-exactly.
func TestBinaryCodecNonFiniteValues(t *testing.T) {
	want := map[string]float64{"nan": math.NaN(), "inf": math.Inf(1), "ninf": math.Inf(-1)}
	m := message{Type: "result", Folded: sectionFromMap(want)}
	got := decodeBinary(t, encodeBinary(t, m)).Folded.toMap()
	for k, v := range want {
		if math.Float64bits(got[k]) != math.Float64bits(v) {
			t.Errorf("Folded[%q] = %x, want %x", k, math.Float64bits(got[k]), math.Float64bits(v))
		}
	}
}

// TestBinaryCodecBufferReuse drives one conn scratch through several
// decodes to prove reuse does not leak one frame's fields into the next.
func TestBinaryCodecBufferReuse(t *testing.T) {
	var m message
	for i, in := range codecMessages() {
		if err := decodeFrame(frameBody(t, encodeBinary(t, in)), &m); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(in)) {
			t.Errorf("reused-scratch decode %d diverged:\n  in: %+v\n out: %+v", i, in, m)
		}
	}
}

// TestDecodeFrameRejectsCorruption: every single-bit flip of a valid
// body must be rejected (that is the CRC's whole job).
func TestDecodeFrameRejectsCorruption(t *testing.T) {
	m := message{Type: "result", TaskID: 4, Folded: sectionFromMap(map[string]float64{"k": 2})}
	body := frameBody(t, encodeBinary(t, m))
	for i := range body {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), body...)
			mut[i] ^= 1 << bit
			var out message
			if err := decodeFrame(mut, &out); err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
		}
	}
	// Truncations must be rejected too.
	for i := 0; i < len(body); i++ {
		var out message
		if err := decodeFrame(bytes.Clone(body[:i]), &out); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", i)
		}
	}
}

// TestRegistryNamesSorted: hello and health documents must not leak map
// iteration order.
func TestRegistryNamesSorted(t *testing.T) {
	jobs := []Job{}
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		j := wordCountJob()
		j.Name = name
		jobs = append(jobs, j)
	}
	r, err := NewRegistry(jobs...)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "mid", "omega", "zeta"}
	for i := 0; i < 50; i++ {
		got := r.Names()
		if !sort.StringsAreSorted(got) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Names() = %v, want sorted %v", got, want)
		}
	}
}

// TestSendClearsStaleWriteDeadline: a one-off timed send must not poison
// later untimed sends (recv already cleared its read deadline; send now
// mirrors it).
func TestSendClearsStaleWriteDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := newConn(a)

	// Keep the far end drained so sends complete.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()

	// A timed send that succeeds leaves its deadline armed on the socket.
	if err := c.send(message{Type: "ping"}, 30*time.Millisecond); err != nil {
		t.Fatalf("timed send: %v", err)
	}
	// Once that deadline expires, an untimed send must still work: send
	// has to clear the stale deadline, as recv always did.
	time.Sleep(50 * time.Millisecond)
	if err := c.send(message{Type: "ping"}, 0); err != nil {
		t.Fatalf("untimed send after a timed one failed: %v", err)
	}
}

// TestBatchedDispatch: small shards share a frame. Sixteen of them on
// two workers arrive as two taskbatch frames of eight, the workers' fair
// shares, and the per-shard accounting still adds up.
func TestBatchedDispatch(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	var mu sync.Mutex
	var frames []string // "<type>/<specs>", as received
	for _, id := range []string{"w0", "w1"} {
		rogueServe(t, addr, id, func(_ *Worker, _ *conn, m message) (bool, bool) {
			if m.Type == "taskbatch" {
				mu.Lock()
				frames = append(frames, fmt.Sprintf("%s/%d", m.Type, len(m.Batch)))
				mu.Unlock()
			}
			return false, true
		})
	}
	waitIdle(t, master, 2) // so each worker takes a batch
	lines := testLines(t, 300)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 16)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 16 {
		t.Errorf("Completed = %d, want 16", stats.Completed)
	}
	total := 0.0
	for _, v := range got {
		total += v
	}
	if total != float64(300*8) {
		t.Errorf("total words %g, want %d", total, 300*8)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"taskbatch/8", "taskbatch/8"}; !reflect.DeepEqual(frames, want) {
		t.Errorf("frames %v, want %v", frames, want)
	}
}

// TestCombineMatchesReduce: the streaming-combiner path must produce
// exactly the buffered path's output.
func TestCombineMatchesReduce(t *testing.T) {
	lines := testLines(t, 250)
	plain := wordCountJob()
	combined := wordCountJob()
	combined.Combine = func(acc, v float64) float64 { return acc + v }

	a := runShard(plain, lines, new(shardScratch))
	b := runShard(combined, lines, new(shardScratch))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("combiner path diverged from buffered path")
	}
}

// TestRunShardPreservesValueOrder: the arena grouping must hand Reduce
// each key's values in emission order, like the per-key slices did.
func TestRunShardPreservesValueOrder(t *testing.T) {
	j := Job{
		Name: "ordered",
		Map: func(record string, emit func(string, float64)) {
			for _, f := range strings.Fields(record) {
				kv := strings.SplitN(f, "=", 2)
				v, err := strconv.ParseFloat(kv[1], 64)
				if err != nil {
					panic(err)
				}
				emit(kv[0], v)
			}
		},
		// Positionally encode the values: any reordering changes the sum.
		Reduce: func(_ string, values []float64) float64 {
			out := 0.0
			for i, v := range values {
				out += v * math.Pow(10, float64(i))
			}
			return out
		},
	}
	records := []string{"a=1 b=9 a=2", "b=8 a=3 c=5"}
	got := runShard(j, records, new(shardScratch))
	want := map[string]float64{
		"a": 1 + 2*10 + 3*100,
		"b": 9 + 8*10,
		"c": 5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("runShard = %v, want %v", got, want)
	}
}
