package netmr

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// The per-layer microbenchmarks of the shuffle byte path, each with
// SetBytes so `go test -bench` prints MB/s next to ns/op: what one frame
// encode, one frame decode, one compression attempt and one reduce-side
// merge cost per byte moved. The shapes are tera-mem's (100-byte keys
// that do not compress, R = 2, 32 map tasks), where these layers are the
// whole job.

// teraSections builds n sections of keys 100-byte pseudo-random keys
// each, values 1 — one map task's slice of one reduce partition.
func teraSections(n, keys int) []partitionPartial {
	rng := rand.New(rand.NewSource(14))
	out := make([]partitionPartial, n)
	for i := range out {
		m := make(map[string]float64, keys)
		for len(m) < keys {
			k := make([]byte, 100)
			for j := range k {
				k[j] = byte(' ' + rng.Intn(95))
			}
			m[string(k)] = 1
		}
		out[i] = partitionPartial{ID: i, Partial: sectionFromMap(m)}
	}
	return out
}

func sectionBytes(parts []partitionPartial) (n int64) {
	for _, p := range parts {
		n += int64(len(p.Partial))
	}
	return n
}

// BenchmarkFrameEncode encodes the replicate frame of one tera-mem map
// task (two sections, ≈1.7 MB) under the layout replication travels on,
// into a fresh destination each time: what a send pays after a collection
// has emptied encBufPool, which on tera-mem is every job.
func BenchmarkFrameEncode(b *testing.B) {
	m := message{Type: "replicate", Run: "tera#1", TaskID: 7, Reducers: 2, Parts: teraSections(2, 7800)}
	b.SetBytes(sectionBytes(m.Parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := appendFrame(nil, &m, nil, true, false, true, true, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecode decodes the same frame the way recv does: a
// buffer of the frame's own (the copy stands in for the socket read),
// flag layer off, checksum, one walk over each section.
func BenchmarkFrameDecode(b *testing.B) {
	m := message{Type: "replicate", Run: "tera#1", TaskID: 7, Reducers: 2, Parts: teraSections(2, 7800)}
	frame, _, err := appendFrame(nil, &m, nil, true, false, true, true, false)
	if err != nil {
		b.Fatal(err)
	}
	body := frameBody(b, frame)
	var out message
	b.SetBytes(sectionBytes(m.Parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, _, err := unwrapCompressedBody(bytes.Clone(body))
		if err != nil {
			b.Fatal(err)
		}
		if err := decodeFrame(raw, &out, true, false, true, true, false, nil); err != nil {
			b.Fatal(err)
		}
	}
	if len(out.Parts) != 2 {
		b.Fatalf("decoded %d parts", len(out.Parts))
	}
}

// BenchmarkLZ runs the shared compression policy over 1 MiB of text (it
// is compressed in full) and of bytes that do not compress (it is
// dropped after one 64 KiB probe — the case that used to cost a full
// pass per hop).
func BenchmarkLZ(b *testing.B) {
	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 1<<20/44+1))[:1<<20]
	noise := make([]byte, 1<<20)
	rand.New(rand.NewSource(14)).Read(noise)
	for _, tc := range []struct {
		name string
		raw  []byte
		want bool
	}{{"text", text, true}, {"incompressible", noise, false}} {
		b.Run(tc.name, func(b *testing.B) {
			var dst []byte
			b.SetBytes(int64(len(tc.raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ok bool
				if dst, ok = lzPack(dst[:0], tc.raw); ok != tc.want {
					b.Fatalf("packed=%v, want %v", ok, tc.want)
				}
			}
		})
	}
}

// BenchmarkSectionMerge is one tera-mem reduce task's fold as
// runReduceTask runs it: the 32 map tasks' sections of a partition
// gathered into a spillFolder and merged by (key, map task) through
// Combine into a fresh result section.
func BenchmarkSectionMerge(b *testing.B) {
	parts := teraSections(32, 7800)
	job := benchJob(true)
	b.SetBytes(sectionBytes(parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := newSpillFolder(0, "", "bench")
		for _, p := range parts {
			f.add(p.ID, p.Partial)
		}
		var out sectionBuilder
		if _, err := f.fold(job, &out); err != nil {
			b.Fatal(err)
		}
		if out.count != 32*7800 {
			b.Fatalf("merged %d keys, want %d", out.count, 32*7800)
		}
	}
}

// BenchmarkResultMap is the master's whole merge window on tera-mem: the
// two reduce results (250 k keys each) as they arrived, to the one map
// Run returns.
func BenchmarkResultMap(b *testing.B) {
	parts := teraSections(2, 250_000)
	res := &Result{parts: []section{parts[0].Partial, parts[1].Partial}}
	b.SetBytes(sectionBytes(parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(res.Map()); n != 500_000 {
			b.Fatalf("map of %d keys, want 500000", n)
		}
	}
}
