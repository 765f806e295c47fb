package netmr

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// compFrameSeeds are the out-of-core shuffle's wire shapes (replication,
// spill accounting, and a payload big enough to actually compress) the
// compressed-frame fuzzer and the committed corpus start from.
func compFrameSeeds() []message {
	big := map[string]float64{}
	for i := 0; i < 754; i++ { // 29 × 26 distinct keys, 34 KB: above lzCompressThreshold
		big["the-quick-brown-fox-"+strings.Repeat("x", i%29)+string(rune('a'+i%26))] = float64(i)
	}
	return []message{
		{Type: "task", Job: "wc", TaskID: 3, Records: []string{"a b", "b c"},
			Run: "wc#1", Rep: "127.0.0.1:7009"},
		{Type: "mapdone", TaskID: 3, Attempt: 1, Run: "wc#1",
			Rep: "127.0.0.1:7009", Spills: 2, Spilled: 4096},
		{Type: "mapdone", TaskID: 4, Run: "wc#1",
			Parts: []partitionPartial{{ID: 0, Partial: sectionFromMap(map[string]float64{"inline": 1})}}},
		{Type: "reducetask", Job: "wc", TaskID: 1, Run: "wc#1",
			Locs: []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}}}},
		{Type: "replicate", Run: "wc#1", TaskID: 2, Reducers: 4,
			Parts: []partitionPartial{
				{ID: 0, Partial: sectionFromMap(map[string]float64{"a": 1})},
				{ID: 3, Partial: ""},
			}},
		{Type: "replicack", TaskID: 2},
		{Type: "result", TaskID: 1, Attempt: 1, Folded: sectionFromMap(map[string]float64{"folded": 9}),
			Bytes: 1 << 20, CompBytes: 512, Spills: 1, Spilled: 2048},
		{Type: "result", TaskID: 0, Folded: sectionFromMap(big)},
		{Type: "helloack", Reducers: 4, ShuffleMs: 15000},
	}
}

// lzRef builds the deterministic test payloads: repetitive text, sorted
// key/value-like runs, and LCG pseudo-random (incompressible) bytes.
func lzPayloads() map[string][]byte {
	rng := uint32(0x9e3779b9)
	random := make([]byte, 9000)
	for i := range random {
		rng = rng*1664525 + 1013904223
		random[i] = byte(rng >> 24)
	}
	keyish := []byte{}
	for i := 0; i < 500; i++ {
		keyish = append(keyish, []byte("word-prefix-shared-")...)
		keyish = append(keyish, byte('a'+i%26), byte('0'+i%10))
	}
	return map[string][]byte{
		"empty":        {},
		"tiny":         []byte("abc"),
		"boundary-12":  []byte("0123456789ab"), // exactly the literal tail
		"boundary-13":  []byte("0123456789abc"),
		"repetitive":   bytes.Repeat([]byte("the quick brown fox "), 400),
		"keyish":       keyish,
		"random":       random,
		"one-byte-x8k": bytes.Repeat([]byte{0x7f}, 8192),
	}
}

// TestLZRoundTrip: every payload must decompress to exactly itself, and
// the repetitive ones must actually shrink (that is the codec's reason
// to exist).
func TestLZRoundTrip(t *testing.T) {
	for name, src := range lzPayloads() {
		comp := lzCompress(nil, src)
		got, err := lzDecompress(nil, comp, len(src))
		if err != nil {
			t.Errorf("%s: decompress: %v", name, err)
			continue
		}
		if !bytes.Equal(got, src) {
			t.Errorf("%s: round trip diverged (%d bytes in, %d out)", name, len(src), len(got))
		}
		if (name == "repetitive" || name == "one-byte-x8k" || name == "keyish") && len(comp) >= len(src) {
			t.Errorf("%s: compressible payload grew: %d -> %d bytes", name, len(src), len(comp))
		}
	}
}

// TestLZDecompressRejectsMalformed pins the decompressor's bounds
// discipline: truncation, rogue offsets and over-declared output sizes
// must error, never read or write out of range.
func TestLZDecompressRejectsMalformed(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 200)
	comp := lzCompress(nil, src)

	for cut := 1; cut < len(comp); cut += 7 {
		if out, err := lzDecompress(nil, comp[:cut], len(src)); err == nil && !bytes.Equal(out, src[:len(out)]) {
			// A clean literal-boundary cut legitimately yields a prefix;
			// anything else must error.
			t.Errorf("truncation at %d returned %d non-prefix bytes", cut, len(out))
		}
	}
	// Output larger than max must be refused.
	if _, err := lzDecompress(nil, comp, len(src)-1); err == nil {
		t.Error("output exceeding the declared max accepted")
	}
	// A match offset pointing before the window start.
	bad := []byte{0x14, 'a', 0xff, 0xff} // 1 literal, then a match at offset 65535
	if _, err := lzDecompress(nil, bad, 100); err == nil {
		t.Error("offset outside the window accepted")
	}
	// A zero offset is never valid.
	bad = []byte{0x14, 'a', 0x00, 0x00}
	if _, err := lzDecompress(nil, bad, 100); err == nil {
		t.Error("zero offset accepted")
	}
	// Truncated length run: token promises an extension that never comes.
	if _, err := lzDecompress(nil, []byte{0xf0}, 10000); err == nil {
		t.Error("truncated literal-length run accepted")
	}
}

// TestCompFrameWireForms pins the flag layer itself: a small frame
// travels stored (flag 0, one byte of overhead), a large compressible
// result frame travels compressed (flag 1) and strictly smaller than its
// raw body, and both unwrap back to the identical checksummed body.
func TestCompFrameWireForms(t *testing.T) {
	body := wireBody(t, encodeBinary(t, message{Type: "ping"}))
	if body[0] != 0 {
		t.Fatalf("small frame flag = %d, want 0 (stored)", body[0])
	}
	raw, compressed, err := unwrapCompressedBody(body)
	if err != nil || compressed {
		t.Fatalf("stored unwrap = (compressed=%v, %v)", compressed, err)
	}
	var back message
	if err := decodeFrame(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Type != "ping" {
		t.Fatalf("stored round trip decoded %q", back.Type)
	}

	big := map[string]float64{}
	for i := 0; i < 2000; i++ {
		big["shared-key-prefix-"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+i%7))] = float64(i % 3)
	}
	compBody := wireBody(t, encodeBinary(t, message{Type: "result", TaskID: 1, Folded: sectionFromMap(big)}))
	if compBody[0] != 1 {
		t.Fatalf("large result frame flag = %d, want 1 (compressed)", compBody[0])
	}
	unwrapped, compressed, err := unwrapCompressedBody(compBody)
	if err != nil || !compressed {
		t.Fatalf("compressed unwrap = (compressed=%v, %v)", compressed, err)
	}
	if len(compBody) >= len(unwrapped) {
		t.Fatalf("compressed body %d bytes, raw %d — no wire saving", len(compBody), len(unwrapped))
	}
	var again message
	if err := decodeFrame(unwrapped, &again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Folded.toMap(), big) {
		t.Fatal("compressed result frame round trip lossy")
	}
}

// overdeclaredCompBody is a 10-byte compressed body whose length prefix
// declares the 64 MiB cap: more than 255 bytes of output per payload
// byte, which no LZ block can produce.
func overdeclaredCompBody() []byte {
	body := binary.AppendUvarint([]byte{1}, maxFrameBytes)
	return append(body, 0x40, 'a', 'b', 'c', 'd')
}

// TestCompDeclaredLengthBoundedByPayload: the decompression target is
// allocated once, from the declared length, so the declaration is
// checked against what the payload can expand to before anything is
// allocated — and a block at the very limit of that expansion still
// decodes.
func TestCompDeclaredLengthBoundedByPayload(t *testing.T) {
	body := overdeclaredCompBody()
	if len(body) != 10 {
		t.Fatalf("seed body is %d bytes, want 10", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := unwrapCompressedBody(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 10-byte body declaring 64 MiB was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("refusing the body allocated %d bytes", grew)
	}

	// One long run is the densest block the format has: every payload
	// byte past the first few stands for 255 bytes of output.
	zeros := make([]byte, 1<<20)
	packed := lzCompress(binary.AppendUvarint([]byte{1}, uint64(len(zeros))), zeros)
	if ratio := len(zeros) / len(packed); ratio < 250 {
		t.Fatalf("control block only expands %d×", ratio)
	}
	raw, compressed, err := unwrapCompressedBody(packed)
	if err != nil || !compressed || !bytes.Equal(raw, zeros) {
		t.Fatalf("maximal-expansion block refused: compressed=%v, %v", compressed, err)
	}
	if cap(raw) != len(zeros) {
		t.Errorf("target buffer has capacity %d for %d declared bytes", cap(raw), len(zeros))
	}
}

// TestCompressedCluster is the compression e2e: a cluster with inputs
// heavy enough that fetchresult/result frames cross the compression
// threshold must produce the reference output and report wire savings.
func TestCompressedCluster(t *testing.T) {
	const workers, shards, R = 3, 6, 3
	master, _ := startReduceCluster(t, MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: R,
	}, workers)

	rng := rand.New(rand.NewSource(7))
	lines := make([]string, 1200)
	for i := range lines {
		words := make([]string, 12)
		for j := range words {
			// Three letters: ≈ 750 keys a section, so the one fetch a ring
			// reducer still makes (2 of 6 map tasks) is ≈ 45 KB.
			words[j] = "compressible-word-" + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
		}
		lines[i] = strings.Join(words, " ")
	}
	got, stats, err := master.Run(context.Background(), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, new(shardScratch))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compressed cluster result diverged from reference")
	}
	if stats.CompressedBytes <= 0 {
		t.Errorf("CompressedBytes = %d, want > 0 (frames above the threshold must compress)", stats.CompressedBytes)
	}
	if stats.ShuffleBytes <= 0 {
		t.Errorf("ShuffleBytes = %d, want > 0", stats.ShuffleBytes)
	}
}
