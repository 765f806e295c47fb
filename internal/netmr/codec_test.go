package netmr

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"reflect"
	"sort"
	"strconv"
	"strings"
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
		{Type: "hello", ID: "127.0.0.1:5555", Jobs: []string{"a", "b"}, Caps: []string{"bin", "bin2", "batch", "part"}},
		{Type: "helloack", Caps: []string{"bin"}},
		{Type: "helloack", Caps: []string{"bin", "part"}, Partitions: 8},
		{Type: "task", Job: "wordcount", TaskID: 3, Attempt: 1, Records: []string{"the quick", "brown fox", ""}},
		{Type: "task", Job: "", TaskID: -7, Attempt: 0, Records: []string{strings.Repeat("x", 4096)}},
		{Type: "result", TaskID: 12, Attempt: 2, Partial: map[string]float64{
			"alpha": 1, "beta": -2.5, "": 3.25, "πκλ": 1e-300, "big": math.MaxFloat64,
		}},
		{Type: "error", TaskID: 9, Message: `unknown job "nope"`},
		{Type: "taskbatch", Batch: []taskSpec{
			{Job: "wc", TaskID: 0, Records: []string{"r0"}},
			{Job: "wc", TaskID: 5, Attempt: 2, Records: nil},
			{Job: "other", TaskID: -1, Records: []string{"a", "b", "c"}},
		}},
		{Type: "presult", TaskID: 7, Attempt: 1, Parts: []partitionPartial{
			{ID: 0, Partial: sectionFromMap(map[string]float64{"alpha": 2, "": -1})},
			{ID: 3, Partial: sectionFromMap(map[string]float64{"πκλ": 1e-300})},
		}},
		{Type: "presult", TaskID: -2, Parts: []partitionPartial{
			{ID: 1, Partial: ""},
		}},
		{Type: "task", Job: "wc", TaskID: 1, Records: []string{"traced"}, Trace: "wc-3"},
		{Type: "result", TaskID: 4, Attempt: 1, Partial: map[string]float64{"k": 2}, Trace: "wc-3", Spans: []spanSummary{
			{Phase: "decode", Start: 0, End: 0.001},
			{Phase: "map", Start: 0.001, End: 0.25},
			{Phase: "", Start: -1.5, End: math.MaxFloat64},
		}},
		{Type: "presult", TaskID: 7, Trace: "", Spans: []spanSummary{{Phase: "encode", Start: 1, End: 1}}, Parts: []partitionPartial{
			{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1})},
		}},
		{Type: "hello", ID: "127.0.0.1:5556", Jobs: []string{"wc"}, Caps: []string{"bin", "bin2", "reduce"}, Fetch: "127.0.0.1:7001"},
		{Type: "helloack", Caps: []string{"bin", "bin2", "reduce"}, Reducers: 4},
		{Type: "task", Job: "wc", TaskID: 2, Records: []string{"persist me"}, Run: "wc#1"},
		{Type: "mapdone", TaskID: 2, Attempt: 1, Run: "wc#1"},
		{Type: "reducetask", Job: "wc", TaskID: 1, Attempt: 0, Run: "wc#1",
			Locs: []fetchLoc{
				{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}},
				{Addr: "127.0.0.1:7002", Tasks: []int{1}},
				{Addr: "", Tasks: nil},
			},
			Parts: []partitionPartial{{ID: 3, Partial: sectionFromMap(map[string]float64{"relayed": 1})}}},
		{Type: "fetch", Run: "wc#1", TaskID: 0, Tasks: []int{0, 1, 2, -5}},
		{Type: "fetchresult", TaskID: 0, Parts: []partitionPartial{
			{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1})},
			{ID: 2, Partial: ""},
		}},
		{Type: "result", TaskID: 1, Attempt: 2, Partial: map[string]float64{"folded": 9}, Bytes: 123456789},
		{Type: "reducetask", Job: "wc", TaskID: 0, Run: "wc#2",
			Locs:  []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{0}}},
			Reps:  []fetchLoc{{Addr: "127.0.0.1:7003", Tasks: []int{0}}, {Addr: "", Tasks: nil}},
			Total: 8},
		{Type: "morelocs", Run: "wc#2", TaskID: 3,
			Locs:  []fetchLoc{{Addr: "127.0.0.1:7002", Tasks: []int{5}}},
			Reps:  []fetchLoc{{Addr: "127.0.0.1:7004", Tasks: []int{5}}},
			Parts: []partitionPartial{{ID: 6, Partial: ""}}},
		{Type: "morelocs", Run: "wc#2", TaskID: 1, Message: "abort"},
		{Type: "result", TaskID: 2, Attempt: 1, Partial: map[string]float64{"f": 1}, Bytes: 77, Failovers: 3},
	}
}

func encodeBinary(t *testing.T, m message) []byte {
	t.Helper()
	frame, _, err := appendFrame(nil, &m, nil, true, true, true, false, true)
	if err != nil {
		t.Fatalf("appendFrame(%+v): %v", m, err)
	}
	return frame
}

// frameBody strips the uvarint length prefix the way recv does.
func frameBody(t testing.TB, frame []byte) []byte {
	t.Helper()
	r := bufio.NewReader(strings.NewReader(string(frame)))
	n, err := readUvarintLen(r)
	if err != nil {
		t.Fatalf("length prefix: %v", err)
	}
	return bytes.Clone(frame[len(frame)-n:]) // decodeFrame keeps the body it is given
}

func decodeBinary(t *testing.T, frame []byte) message {
	t.Helper()
	var m message
	if err := decodeFrame(frameBody(t, frame), &m, true, true, true, false, true, nil); err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	return m
}

func readUvarintLen(r *bufio.Reader) (int, error) {
	var x uint64
	var s uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			return int(x | uint64(b)<<s), nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// normalize maps the JSON codec's empty-slice/empty-map decodings onto
// the binary codec's nil convention so the two can be DeepEqual'd.
func normalize(m message) message {
	if len(m.Records) == 0 {
		m.Records = nil
	}
	if len(m.Partial) == 0 {
		m.Partial = nil
	}
	if len(m.Jobs) == 0 {
		m.Jobs = nil
	}
	if len(m.Caps) == 0 {
		m.Caps = nil
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
	if len(m.CompAddrs) == 0 {
		m.CompAddrs = nil
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

// TestBinaryCodecMatchesJSONCodec is the round-trip property test: for
// every corpus message, JSON round-trip and binary round-trip must
// produce the same message.
func TestBinaryCodecMatchesJSONCodec(t *testing.T) {
	for _, m := range codecMessages() {
		line, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("json encode %+v: %v", m, err)
		}
		var viaJSON message
		if err := json.Unmarshal(line, &viaJSON); err != nil {
			t.Fatalf("json decode: %v", err)
		}
		viaBin := decodeBinary(t, encodeBinary(t, m))
		if !reflect.DeepEqual(normalize(viaBin), normalize(viaJSON)) {
			t.Errorf("codecs disagree for %q:\n json: %+v\n  bin: %+v", m.Type, viaJSON, viaBin)
		}
		if !reflect.DeepEqual(normalize(viaBin), normalize(m)) {
			t.Errorf("binary round trip of %q is lossy:\n  in: %+v\n out: %+v", m.Type, m, viaBin)
		}
	}
}

// TestBinaryCodecNonFiniteValues: JSON cannot carry NaN/±Inf at all; the
// binary codec must round-trip them bit-exactly.
func TestBinaryCodecNonFiniteValues(t *testing.T) {
	m := message{Type: "result", Partial: map[string]float64{
		"nan": math.NaN(), "inf": math.Inf(1), "ninf": math.Inf(-1),
	}}
	got := decodeBinary(t, encodeBinary(t, m))
	for k, want := range m.Partial {
		if math.Float64bits(got.Partial[k]) != math.Float64bits(want) {
			t.Errorf("Partial[%q] = %x, want %x", k, math.Float64bits(got.Partial[k]), math.Float64bits(want))
		}
	}
}

// TestBinaryCodecBufferReuse drives one conn scratch through several
// decodes to prove reuse does not leak one frame's fields into the next.
func TestBinaryCodecBufferReuse(t *testing.T) {
	var m message
	for i, in := range codecMessages() {
		frame := encodeBinary(t, in)
		if err := decodeFrame(frameBody(t, frame), &m, true, true, true, false, true, nil); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(in)) {
			t.Errorf("reused-scratch decode %d diverged:\n  in: %+v\n out: %+v", i, in, m)
		}
	}
}

// codecGen names one binary layout generation: which capability-gated
// field blocks its frames carry.
type codecGen struct {
	name                    string
	ext, trc, red, cmp, erl bool
}

// codecGens is every layout a negotiated connection can land on (trc,
// red and cmp all nest on ext and are independent of each other; erl is
// only granted alongside cmp, so the list samples the reachable
// combinations rather than exhausting all of them).
func codecGens() []codecGen {
	return []codecGen{
		{"base", false, false, false, false, false},
		{"bin2", true, false, false, false, false},
		{"trace", true, true, false, false, false},
		{"reduce", true, false, true, false, false},
		{"trace+reduce", true, true, true, false, false},
		{"comp", true, false, false, true, false},
		{"reduce+comp", true, false, true, true, false},
		{"trace+reduce+comp", true, true, true, true, false},
		{"early", true, false, true, true, true},
		{"trace+early", true, true, true, true, true},
	}
}

// carries reports whether generation g's layout can represent m.
func (g codecGen) carries(m message) bool {
	if !g.ext && (m.Partitions != 0 || len(m.Parts) > 0) {
		return false
	}
	if !g.trc && (m.Trace != "" || len(m.Spans) > 0) {
		return false
	}
	if !g.red && (m.Run != "" || m.Reducers != 0 || m.Fetch != "" || m.Bytes != 0 || len(m.Tasks) > 0 || len(m.Locs) > 0) {
		return false
	}
	if !g.cmp && (m.Rep != "" || len(m.CompAddrs) > 0 || m.Spills != 0 || m.Spilled != 0 || m.CompBytes != 0 || m.ShuffleMs != 0) {
		return false
	}
	if !g.erl && (m.Total != 0 || len(m.Reps) > 0 || m.Failovers != 0) {
		return false
	}
	return true
}

// decodeGen decodes one wire body under generation g, stripping the comp
// flag layer first when g carries it — the same two steps recv performs.
func decodeGen(body []byte, m *message, g codecGen) error {
	if g.cmp {
		raw, _, err := unwrapCompressedBody(body)
		if err != nil {
			return err
		}
		body = raw
	}
	return decodeFrame(body, m, g.ext, g.trc, g.red, g.cmp, g.erl, nil)
}

// TestBinaryCodecLegacyLayout pins the layout negotiation that keeps
// mixed-version binary clusters decodable across all five generations
// (base, +ext, +ext+trc, +ext+red, +ext+trc+red): each generation must
// produce and accept exactly its own layout, refuse to encode frames
// whose fields need a newer one, and any layout mismatch between encoder
// and decoder must error instead of mis-decoding.
func TestBinaryCodecLegacyLayout(t *testing.T) {
	gens := codecGens()
	for _, m := range codecMessages() {
		bodies := map[string][]byte{}
		for _, g := range gens {
			frame, _, err := appendFrame(nil, &m, nil, g.ext, g.trc, g.red, g.cmp, g.erl)
			if !g.carries(m) {
				if err == nil {
					t.Errorf("%s-layout encode of %q with newer-generation fields must fail, got none", g.name, m.Type)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s-layout encode %q: %v", g.name, m.Type, err)
			}
			bodies[g.name] = frameBody(t, frame)
			var out message
			if err := decodeGen(bodies[g.name], &out, g); err != nil {
				t.Fatalf("%s-layout decode %q: %v", g.name, m.Type, err)
			}
			if !reflect.DeepEqual(normalize(out), normalize(m)) {
				t.Errorf("%s-layout round trip of %q is lossy:\n in: %+v\nout: %+v", g.name, m.Type, m, out)
			}
		}
		// A newer frame has trailing fields an older decoder must reject,
		// and a newer decoder must reject the older frame as truncated —
		// mismatches error, never mis-decode.
		for _, enc := range gens {
			body, ok := bodies[enc.name]
			if !ok {
				continue
			}
			for _, dec := range gens {
				if enc == dec {
					continue
				}
				var out message
				if err := decodeGen(body, &out, dec); err == nil {
					t.Errorf("%s decoder accepted a %s-layout %q frame", dec.name, enc.name, m.Type)
				}
			}
		}
	}
}

// TestDecodeFrameRejectsCorruption: every single-bit flip of a valid
// body must be rejected (that is the CRC's whole job — JSON used to get
// this from parse errors).
func TestDecodeFrameRejectsCorruption(t *testing.T) {
	m := message{Type: "result", TaskID: 4, Partial: map[string]float64{"k": 2}}
	body := frameBody(t, encodeBinary(t, m))
	for i := range body {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), body...)
			mut[i] ^= 1 << bit
			var out message
			if err := decodeFrame(mut, &out, true, true, true, false, true, nil); err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
		}
	}
	// Truncations must be rejected too.
	for i := 0; i < len(body); i++ {
		var out message
		if err := decodeFrame(body[:i], &out, true, true, true, false, true, nil); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", i)
		}
	}
}

// FuzzDecodeFrame: arbitrary bodies must never panic or over-allocate,
// only decode or error.
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range codecMessages() {
		frame, _, err := appendFrame(nil, &m, nil, true, true, true, false, true)
		if err != nil {
			f.Fatal(err)
		}
		// Seed with the body (prefix stripped): valid, truncated, corrupt.
		body := frameBody(f, frame)
		f.Add(body)
		f.Add(body[:len(body)/2])
		mut := append([]byte(nil), body...)
		if len(mut) > 0 {
			mut[len(mut)/3] ^= 0x10
		}
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Every layout generation must be panic-free on arbitrary input.
		for _, g := range codecGens() {
			var out message
			err := decodeFrame(bytes.Clone(body), &out, g.ext, g.trc, g.red, g.cmp, g.erl, nil)
			if err != nil {
				continue
			}
			// A frame that decodes must re-encode under the same layout
			// (unknown type bytes excepted: they decode to a "?N"
			// placeholder for the ignore-unknown-frames path).
			if _, ok := frameTypes[out.Type]; ok {
				if _, _, err := appendFrame(nil, &out, nil, g.ext, g.trc, g.red, g.cmp, g.erl); err != nil {
					t.Fatalf("%s-layout decoded frame failed to re-encode: %v", g.name, err)
				}
			}
		}
	})
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

// legacyJSONWorker emulates a protocol-v1 worker byte for byte: JSON
// hello without capabilities, JSON frames both ways, unknown frames
// ignored. It proves a master that negotiates the binary codec with new
// workers still interoperates with old ones on the same job.
func legacyJSONWorker(t *testing.T, addr string, job Job) {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = raw.Close() })
	type legacyMsg struct {
		Type    string             `json:"type"`
		ID      string             `json:"id,omitempty"`
		Job     string             `json:"job,omitempty"`
		TaskID  int                `json:"task_id,omitempty"`
		Attempt int                `json:"attempt,omitempty"`
		Records []string           `json:"records,omitempty"`
		Partial map[string]float64 `json:"partial,omitempty"`
		Jobs    []string           `json:"jobs,omitempty"`
	}
	enc := json.NewEncoder(raw)
	dec := json.NewDecoder(bufio.NewReader(raw))
	if err := enc.Encode(legacyMsg{Type: "hello", ID: "legacy-json", Jobs: []string{job.Name}}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			var m legacyMsg
			if err := dec.Decode(&m); err != nil {
				return
			}
			switch m.Type {
			case "task":
				partial := make(map[string]float64)
				var keys []string
				interm := make(map[string][]float64)
				emit := func(k string, v float64) {
					if _, ok := interm[k]; !ok {
						keys = append(keys, k)
					}
					interm[k] = append(interm[k], v)
				}
				for _, rec := range m.Records {
					job.Map(rec, emit)
				}
				for _, k := range keys {
					partial[k] = job.Reduce(k, interm[k])
				}
				if err := enc.Encode(legacyMsg{Type: "result", TaskID: m.TaskID, Attempt: m.Attempt, Partial: partial}); err != nil {
					return
				}
			case "ping":
				if err := enc.Encode(legacyMsg{Type: "pong"}); err != nil {
					return
				}
			}
		}
	}()
}

// TestMixedVersionCluster runs one master with a legacy JSON worker and
// a current binary worker side by side; the job must complete correctly
// and both workers must execute shards.
func TestMixedVersionCluster(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, MaxTaskBatch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)

	legacyJSONWorker(t, addr, wordCountJob())
	w, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 400)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, newShardScratch())
	if len(got) != len(want) {
		t.Fatalf("distinct keys %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %g, want %g", k, got[k], v)
		}
	}
	var legacyShards, otherShards int
	for _, ws := range stats.PerWorker {
		if ws.ID == "legacy-json" {
			legacyShards = ws.ShardsRun
		} else {
			otherShards += ws.ShardsRun
		}
	}
	if legacyShards == 0 || otherShards == 0 {
		t.Errorf("both protocol versions must run shards, got legacy=%d other=%d (%+v)",
			legacyShards, otherShards, stats.PerWorker)
	}
}

// TestBatchedDispatch packs several shards per frame and checks the
// per-shard accounting still adds up.
func TestBatchedDispatch(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, MaxTaskBatch: 4,
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
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
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
}

// TestCombineMatchesReduce: the streaming-combiner path must produce
// exactly the buffered path's output.
func TestCombineMatchesReduce(t *testing.T) {
	lines := testLines(t, 250)
	plain := wordCountJob()
	combined := wordCountJob()
	combined.Combine = func(acc, v float64) float64 { return acc + v }

	a := runShard(plain, lines, newShardScratch())
	b := runShard(combined, lines, newShardScratch())
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
	got := runShard(j, records, newShardScratch())
	want := map[string]float64{
		"a": 1 + 2*10 + 3*100,
		"b": 9 + 8*10,
		"c": 5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("runShard = %v, want %v", got, want)
	}
}
