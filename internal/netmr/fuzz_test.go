package netmr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The decoder fuzzers share one property (fuzzDecode) and differ in the
// frame family their seeds come from. The seeds are committed under
// testdata/fuzz in the native corpus format, so `go test -fuzz` and the
// CI bursts start from the valid frame shapes instead of rediscovering
// them, and each target also adds them itself, so a plain `go test` runs
// them whether or not the files are there.

// seedVariants are the shapes a fuzzer starts from for one valid body:
// itself, cut short twice, and with one bit flipped.
func seedVariants(body []byte) [][]byte {
	mut := bytes.Clone(body)
	if len(mut) > 4 {
		mut[4] ^= 0x40
	}
	return [][]byte{body, body[:len(body)/2], body[:len(body)*2/3], mut}
}

// partitionedSeeds are the shapes FuzzDecodePartitionedResult starts
// from: replicate frames carrying a map task's partition set to its
// replica peer, and the bare mapdone that answers the task.
func partitionedSeeds() []message {
	return []message{
		{Type: "replicate", TaskID: 1, Run: "wc#1", Reducers: 3, Parts: []partitionPartial{
			{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1, "b": 2})},
			{ID: 2, Partial: sectionFromMap(map[string]float64{"c": -3.5})},
		}},
		{Type: "replicate", TaskID: 0, Run: "wc#1", Parts: []partitionPartial{{ID: 7}}},
		{Type: "mapdone"},
	}
}

// spanSeeds are the traced shapes FuzzDecodeSpanSummary starts from.
func spanSeeds() []message {
	return []message{
		{Type: "result", TaskID: 1, Attempt: 1, Folded: sectionFromMap(map[string]float64{"a": 1}), Trace: "wc-1", Spans: []spanSummary{
			{Phase: "decode", Start: 0, End: 0.002},
			{Phase: "map", Start: 0.002, End: 0.8},
			{Phase: "combine", Start: 0.8, End: 0.9},
			{Phase: "encode", Start: 0.9, End: 0.95},
		}},
		{Type: "mapdone", TaskID: 3, Trace: "j-9", Spans: []spanSummary{
			{Phase: "partition", Start: 0.1, End: 0.2},
		}, Rep: "127.0.0.1:7002"},
		{Type: "result", TaskID: 2, Trace: "", Spans: nil},
		{Type: "taskbatch", Batch: []taskSpec{{Job: "wc", TaskID: 0, Records: []string{"r"}}}, Trace: "wc-2"},
	}
}

// reduceFrameSeeds are the reduce/fetch shapes FuzzDecodeReduceFrame
// starts from.
func reduceFrameSeeds() []message {
	return []message{
		{Type: "reducetask", Job: "wc", TaskID: 1, Attempt: 0, Run: "wc#1",
			Locs: []fetchLoc{
				{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}},
				{Addr: "127.0.0.1:7002", Tasks: []int{1}},
			},
			Reps: []fetchLoc{{Addr: "127.0.0.1:7003", Tasks: []int{0, 1, 2}}}, Total: 4},
		{Type: "reducetask", Job: "", TaskID: -1, Run: "", Locs: []fetchLoc{{Addr: "", Tasks: nil}}},
		{Type: "fetch", Run: "wc#1", TaskID: 0, Tasks: []int{0, 1, 2}},
		{Type: "fetch", Run: "", TaskID: -9, Tasks: nil},
		{Type: "fetchresult", TaskID: 0, Parts: []partitionPartial{
			{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1.5})},
			{ID: 2, Partial: ""},
		}},
		{Type: "mapdone", TaskID: 2, Attempt: 1, Run: "wc#1"},
		{Type: "result", TaskID: 1, Attempt: 2, Folded: sectionFromMap(map[string]float64{"folded": 9}), Bytes: 1 << 40},
		{Type: "morelocs", Run: "wc#1", TaskID: 2, Locs: []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{4}}}},
		{Type: "morelocs", Run: "wc#1", TaskID: 0, Message: "abort"},
	}
}

// shuffleFrameSeeds are the out-of-core shuffle's wire shapes
// (replication, spill accounting, and a result whose section is big
// enough to leave from where it lies) FuzzDecodeFrame and the
// new-connection fuzzer start from.
func shuffleFrameSeeds() []message {
	big := map[string]float64{}
	for i := 0; i < 754; i++ { // 29 × 26 distinct keys, 34 KB: above sectionRefBytes
		big["the-quick-brown-fox-"+strings.Repeat("x", i%29)+string(rune('a'+i%26))] = float64(i)
	}
	return []message{
		{Type: "taskbatch", Batch: []taskSpec{{Job: "wc", TaskID: 3, Records: []string{"a b", "b c"}}},
			Run: "wc#1", Rep: "127.0.0.1:7009"},
		{Type: "mapdone", TaskID: 3, Attempt: 1, Run: "wc#1",
			Rep: "127.0.0.1:7009", Spills: 2, Spilled: 4096},
		{Type: "mapdone", TaskID: 4, Run: "wc#1"},
		{Type: "reducetask", Job: "wc", TaskID: 1, Run: "wc#1",
			Locs: []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}}}},
		{Type: "replicate", Run: "wc#1", TaskID: 2, Reducers: 4,
			Parts: []partitionPartial{
				{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1})},
				{ID: 3, Partial: ""},
			}},
		{Type: "replicack", TaskID: 2},
		{Type: "result", TaskID: 1, Attempt: 1, Folded: sectionFromMap(map[string]float64{"folded": 9}),
			Bytes: 1 << 20, Spills: 1, Spilled: 2048},
		{Type: "result", TaskID: 0, Folded: sectionFromMap(big)},
		{Type: "helloack", Reducers: 4, ShuffleMs: 15000},
	}
}

// preambleSeeds open a connection the ways FuzzDecodeCompressedFrame's
// first step must refuse: too short, another magic, another version.
func preambleSeeds() [][]byte {
	return [][]byte{
		[]byte("NM"),
		{'X', 'M', 'R', protocolVersion, 0},
		{'N', 'M', 'R', protocolVersion + 1, 0},
	}
}

// fuzzCorpora encodes the seed messages of every decoder fuzzer into the
// bodies the committed corpus holds, file seed-NNN being bodies[NNN].
func fuzzCorpora(t testing.TB) map[string][][]byte {
	corpora := map[string][][]byte{}
	for name, msgs := range map[string][]message{
		"FuzzDecodeFrame":             append(codecMessages(), shuffleFrameSeeds()...),
		"FuzzDecodeReduceFrame":       reduceFrameSeeds(),
		"FuzzDecodePartitionedResult": partitionedSeeds(),
		"FuzzDecodeSpanSummary":       spanSeeds(),
	} {
		for _, m := range msgs {
			corpora[name] = append(corpora[name], seedVariants(frameBody(t, encodeBinary(t, m)))...)
		}
	}
	// The new-connection fuzzer reads what a listener reads first: the
	// preamble, then a length-prefixed frame.
	for _, m := range shuffleFrameSeeds() {
		for _, frame := range seedVariants(encodeBinary(t, m)) {
			corpora["FuzzDecodeCompressedFrame"] = append(corpora["FuzzDecodeCompressedFrame"], afterPreamble(frame))
		}
	}
	corpora["FuzzDecodeCompressedFrame"] = append(corpora["FuzzDecodeCompressedFrame"], preambleSeeds()...)
	return corpora
}

// fuzzDecode is the property every decoder fuzzer checks on a raw body:
// it decodes or errors, never panics; what it decodes is no larger than
// what it was given, walks without failing, re-encodes and round-trips to
// the same message.
func fuzzDecode(t *testing.T, body []byte) {
	var m message
	if err := decodeFrame(bytes.Clone(body), &m); err != nil {
		return
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
	for _, s := range m.Spans {
		if len(s.Phase) > len(body) {
			t.Fatalf("span phase of %d bytes from a %d-byte body", len(s.Phase), len(body))
		}
	}
	if _, ok := frameTypes[m.Type]; !ok {
		return // unknown type placeholder, ignore-path
	}
	var again message
	if err := decodeFrame(frameBody(t, encodeBinary(t, m)), &again); err != nil {
		t.Fatalf("re-encoded frame failed to decode: %v", err)
	}
	if !sameSpans(m.Spans, again.Spans) {
		t.Fatalf("span summaries lossy:\n in: %+v\nout: %+v", m.Spans, again.Spans)
	}
	if !reflect.DeepEqual(normalize(stripSpans(again)), normalize(stripSpans(m))) {
		t.Fatalf("round trip lossy:\n in: %+v\nout: %+v", m, again)
	}
}

// sameSpans compares span summaries bit-exactly (NaN intervals from
// fuzzed bodies defeat DeepEqual's float semantics on some fields).
func sameSpans(a, b []spanSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Phase != b[i].Phase ||
			math.Float64bits(a[i].Start) != math.Float64bits(b[i].Start) ||
			math.Float64bits(a[i].End) != math.Float64bits(b[i].End) {
			return false
		}
	}
	return true
}

func stripSpans(m message) message {
	m.Spans = nil
	return m
}

// seedDecoderFuzz adds the named corpora and the sections that lie about
// their contents.
func seedDecoderFuzz(f *testing.F, names ...string) {
	corpora := fuzzCorpora(f)
	for _, name := range names {
		for _, body := range corpora[name] {
			f.Add(body)
		}
	}
	for _, body := range sortedBodies(badSectionBodies(f)) {
		f.Add(body)
	}
}

// FuzzDecodeFrame: arbitrary bodies must never panic or over-allocate,
// only decode or error. It starts from every seed family; CI fuzzes this
// target.
func FuzzDecodeFrame(f *testing.F) {
	seedDecoderFuzz(f, "FuzzDecodeFrame", "FuzzDecodePartitionedResult", "FuzzDecodeSpanSummary", "FuzzDecodeReduceFrame")
	f.Fuzz(fuzzDecode)
}

// The three targets below are FuzzDecodeFrame started from one family of
// seeds each: replicated partition sets, traced frames, the reduce
// phase's frames.
// They stay as named replays of their committed corpora.

func FuzzDecodePartitionedResult(f *testing.F) {
	seedDecoderFuzz(f, "FuzzDecodePartitionedResult")
	f.Fuzz(fuzzDecode)
}

func FuzzDecodeSpanSummary(f *testing.F) {
	seedDecoderFuzz(f, "FuzzDecodeSpanSummary")
	f.Fuzz(fuzzDecode)
}

func FuzzDecodeReduceFrame(f *testing.F) {
	seedDecoderFuzz(f, "FuzzDecodeReduceFrame")
	f.Fuzz(fuzzDecode)
}

// FuzzDecodeCompressedFrame feeds the receive path of a new connection —
// conn.recv: preamble check, length prefix and its cap, checksum, decode
// — arbitrary bytes: it must refuse or decode, never panic, and a frame it
// accepts must re-encode and round-trip to the same message. (The name is
// the v4 wire's, whose bulk frames could travel compressed.)
func FuzzDecodeCompressedFrame(f *testing.F) {
	for _, stream := range fuzzCorpora(f)["FuzzDecodeCompressedFrame"] {
		f.Add(stream)
	}
	f.Add(binary.AppendUvarint(afterPreamble(nil), maxFrameBytes+1))
	f.Fuzz(func(t *testing.T, stream []byte) {
		if _, _, err := recvStream(stream); err == nil {
			frame := stream[len(preamble):]
			n, k := binary.Uvarint(frame)
			fuzzDecode(t, frame[k:][:n])
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz when NETMR_WRITE_FUZZ_CORPUS is set.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("NETMR_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set NETMR_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	for fuzzName, bodies := range fuzzCorpora(t) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
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

// TestCommittedCorpusMatchesEncoder: the corpus under testdata/fuzz is
// the encoder's output for the seed messages, byte for byte: an encoder
// change that moves a byte shows here, and is a protocolVersion bump.
func TestCommittedCorpusMatchesEncoder(t *testing.T) {
	for fuzzName, bodies := range fuzzCorpora(t) {
		for i, b := range bodies {
			name := filepath.Join("testdata", "fuzz", fuzzName, fmt.Sprintf("seed-%03d", i))
			got, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b); string(got) != want {
				t.Errorf("%s: the encoder no longer produces the committed bytes", name)
			}
		}
	}
}

// spillBlockSeeds are a two-block file as the block writer frames it, and
// that file damaged every way a disk or a lying header can: cut inside a
// header and inside a body, a length off by one bit in either block, a
// flipped checksum or body bit, a zero length, and a length past the
// file, by one byte and by a gigabyte.
func spillBlockSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	var file bytes.Buffer
	w := blockWriter{w: bufio.NewWriter(&file)}
	var first, text []byte
	for i := 0; i < 40; i++ {
		first = binary.LittleEndian.AppendUint64(appendString(first, fmt.Sprintf("k%03d", i)), math.Float64bits(float64(i)))
	}
	for i := 0; i < 900; i++ {
		text = binary.LittleEndian.AppendUint64(appendString(text, fmt.Sprintf("shared-prefix-key-%05d", i)), math.Float64bits(1))
	}
	for _, blk := range [][]byte{first, text} {
		if err := w.block(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := file.Bytes()
	second := 2 + 4 + len(first) // the first header: a 2-byte length, the checksum
	seeds := map[string][]byte{"whole": whole, "cut-in-header": whole[:second+3], "cut-in-body": whole[:len(whole)-9]}
	for name, at := range map[string]int{
		"raw-length-lies": 0, "checksum-bit": 2, "payload-bit": 20,
		"second-raw-length-lies": second, "second-payload-bit": second + 40,
	} {
		seeds[name] = bytes.Clone(whole)
		seeds[name][at] ^= 0x02
	}
	// Headers whose length is refused before anything is read for it.
	header := func(n uint64) []byte {
		return binary.LittleEndian.AppendUint32(binary.AppendUvarint(bytes.Clone(whole[:second]), n), crc32.Checksum(text, crcTable))
	}
	seeds["zero-length"] = append(header(0), text...)
	seeds["raw-length-past-the-extent"] = append(header(uint64(len(text)+1)), text...)
	seeds["length-past-the-file"] = append(header(1<<30), 1, 2, 3)
	return seeds
}

// spillBlockWalk streams data back as a run file (tagged) or a spilled
// section, read from memory, and returns the bytes of the records it
// yielded.
func spillBlockWalk(data []byte, tagged bool) (int, error) {
	blocks := &blockReader{f: bytes.NewReader(data), name: "blocks", end: int64(len(data))}
	src := &mergeSource{blocks: blocks, tagged: tagged}
	for n := 0; ; n += len(src.key) + 8 {
		if err := src.advance(); err != nil || !src.live {
			return n, err
		}
	}
}

// TestSpillBlockRejectsDamage: the whole file streams back record for
// record; every damaged one is an error, whichever block the damage is in,
// and none allocates for a length the file cannot hold.
func TestSpillBlockRejectsDamage(t *testing.T) {
	for name, data := range spillBlockSeeds(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := spillBlockWalk(data, false)
		runtime.ReadMemStats(&after)
		if name == "whole" {
			if want := 40*4 + 900*23 + 940*8; err != nil || n != want {
				t.Errorf("whole: %d record bytes, err %v; want %d", n, err, want)
			}
		} else if err == nil {
			t.Errorf("%s: streamed %d record bytes without an error", name, n)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: walking %d bytes allocated %d", name, len(data), grew)
		}
	}
}

// FuzzSpillBlock holds the block reader of spill files and run files to
// the decoders' property: over arbitrary file bytes it yields records of
// verified blocks or errors, never panics, and yields no more record
// bytes than the file holds.
func FuzzSpillBlock(f *testing.F) {
	for _, data := range sortedBodies(spillBlockSeeds(f)) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tagged := range []bool{false, true} {
			if n, _ := spillBlockWalk(data, tagged); n > len(data) {
				t.Fatalf("%d record bytes from a %d-byte file", n, len(data))
			}
		}
	})
}
