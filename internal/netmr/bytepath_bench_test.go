package netmr

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ipso/internal/workload"
)

// The per-layer microbenchmarks of the shuffle byte path, each with
// SetBytes so `go test -bench` prints MB/s next to ns/op: what one frame
// encode, one frame decode and one reduce-side merge cost per byte
// moved. The shapes are tera-mem's (100-byte random keys, R = 2, 32 map
// tasks), where these layers are the whole job.

func benchLines(n int) ([]string, error) {
	return workload.TextLines(n, 8, 42)
}

func benchJob(combine bool) Job {
	j := wordCountJob()
	if combine {
		j.Combine = func(acc, v float64) float64 { return acc + v }
	}
	return j
}

// teraSections builds n sections of keys 100-byte pseudo-random keys
// each, values 1 — one map task's slice of one reduce partition.
func teraSections(n, keys int) []partitionPartial {
	return prefixedSections("", n, keys)
}

// prefixedSections is teraSections with every key starting with prefix
// (still 100 bytes a key): the URL or "user:0000…" shape, where the
// first 8 bytes order nothing.
func prefixedSections(prefix string, n, keys int) []partitionPartial {
	rng := rand.New(rand.NewSource(14))
	out := make([]partitionPartial, n)
	for i := range out {
		m := make(map[string]float64, keys)
		for len(m) < keys {
			m[prefix+randomKey(rng, 100-len(prefix))] = 1
		}
		out[i] = partitionPartial{ID: i, Partial: sectionFromMap(m)}
	}
	return out
}

func randomKey(rng *rand.Rand, n int) string {
	k := make([]byte, n)
	for j := range k {
		k[j] = byte(' ' + rng.Intn(95))
	}
	return string(k)
}

func sectionBytes(parts []partitionPartial) (n int64) {
	for _, p := range parts {
		n += int64(len(p.Partial))
	}
	return n
}

// BenchmarkFrameEncode encodes the replicate frame of one tera-mem map
// task (two sections, ≈1.7 MB) with a fresh encoder each time, what a
// send pays after a collection has emptied encBufPool, and writes its
// segments into a sink as send does: the checksum reads the sections,
// nothing copies them.
func BenchmarkFrameEncode(b *testing.B) {
	m := message{Type: "replicate", Run: "tera#1", TaskID: 7, Reducers: 2, Parts: teraSections(2, 7800)}
	b.SetBytes(sectionBytes(m.Parts))
	b.ReportAllocs()
	var e frameEnc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e = frameEnc{}
		segs, err := e.encode(&m, nil, sectionRefBytes)
		if err == nil {
			e.out = segs
			_, err = e.out.WriteTo(io.Discard)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecode decodes the same frame the way recv does: a
// buffer of the frame's own (the copy stands in for the socket read),
// checksum, one walk over each section.
func BenchmarkFrameDecode(b *testing.B) {
	m := message{Type: "replicate", Run: "tera#1", TaskID: 7, Reducers: 2, Parts: teraSections(2, 7800)}
	body := frameBody(b, encodeBinary(b, m))
	var out message
	b.SetBytes(sectionBytes(m.Parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeFrame(bytes.Clone(body), &out); err != nil {
			b.Fatal(err)
		}
	}
	if len(out.Parts) != 2 {
		b.Fatalf("decoded %d parts", len(out.Parts))
	}
}

// lowcardJob is the ledger's wc-lowcard job: words cut at spaces by a
// byte scan, no allocation per record, summed by Combine.
func lowcardJob() Job {
	j := benchJob(true)
	j.Map = func(record string, emit func(string, float64)) {
		start := 0
		for i := 0; i <= len(record); i++ {
			if i == len(record) || record[i] == ' ' {
				if i > start {
					emit(record[start:i], 1)
				}
				start = i + 1
			}
		}
	}
	return j
}

// BenchmarkMapKernel is one map task of a persist-mode job from records
// to sections (runShardPartitioned at R = 2: map, group, hash, sort,
// encode), MB/s of input, the output fresh per operation as runTask
// needs it. tera is one tera-mem shard (15,625 distinct 100-byte
// records, nothing combines); wordcount one shard of wc-lowcard's shape
// (1000 distinct words: next to nothing to hash or sort) through
// strings.Fields, which allocates per record; wclowcard one wc-lowcard
// shard as the ledger runs it (93,750 lines, a byte-scanning Map), where
// the combiner's key lookups are the cost; sharedprefix is tera with
// every key behind the same 24 bytes, where a sort that looks at the
// first 8 bytes alone learns nothing.
func BenchmarkMapKernel(b *testing.B) {
	distinct := benchJob(true)
	distinct.Map = func(record string, emit func(string, float64)) { emit(record, 1) }
	tera, err := workload.TeraGen(15_625, 14)
	if err != nil {
		b.Fatal(err)
	}
	teraLines, shared := make([]string, len(tera)), make([]string, len(tera))
	for i, r := range tera {
		teraLines[i] = r.Key + r.Payload
		shared[i] = "http://example.org/user/" + teraLines[i][:76]
	}
	text, err := workload.TextLines(20_000, 10, 14)
	if err != nil {
		b.Fatal(err)
	}
	lowcard, err := workload.TextLines(93_750, 10, 14)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		job     Job
		records []string
	}{{"tera", distinct, teraLines}, {"wordcount", benchJob(true), text},
		{"wclowcard", lowcardJob(), lowcard}, {"sharedprefix", distinct, shared}} {
		b.Run(tc.name, func(b *testing.B) {
			var n int64
			for _, r := range tc.records {
				n += int64(len(r))
			}
			sc := new(shardScratch)
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if parts := runShardPartitioned(tc.job, tc.records, sc, 2, nil); len(parts) != 2 {
					b.Fatalf("%d partitions, want 2", len(parts))
				}
			}
		})
	}
}

// BenchmarkSectionMerge is one tera-mem reduce task's fold as
// runReduceTask runs it: the 32 map tasks' sections of a partition
// gathered into a spillFolder and merged by (key, map task) through
// Combine into a fresh result section.
func BenchmarkSectionMerge(b *testing.B) { benchmarkSectionMerge(b, teraSections(32, 7800)) }

// BenchmarkSectionMergeSharedPrefix is the same fold over keys that all
// start with the same 24 bytes: every comparison in the loser tree ties
// on the prefix and goes on to the key bytes.
func BenchmarkSectionMergeSharedPrefix(b *testing.B) {
	benchmarkSectionMerge(b, prefixedSections("http://example.org/user/", 32, 7800))
}

func benchmarkSectionMerge(b *testing.B, parts []partitionPartial) {
	job := benchJob(true)
	b.SetBytes(sectionBytes(parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := newSpillFolder(0, "", "bench")
		for _, p := range parts {
			f.add(p.ID, p.Partial)
		}
		keys := 0
		out := foldOut{cut: func(_ int, chunk section, _ int64) error {
			keys += chunk.count()
			return nil
		}}
		if _, err := f.fold(job, &out); err != nil {
			b.Fatal(err)
		}
		if keys += out.b.count; keys != 32*7800 {
			b.Fatalf("merged %d keys, want %d", keys, 32*7800)
		}
	}
}

// BenchmarkResultMap is the union on tera-mem done after the job: the
// two reduce results (250 k keys each) as they arrived, to one map.
func BenchmarkResultMap(b *testing.B) {
	parts := teraSections(2, 250_000)
	res := &Result{parts: [][]section{{parts[0].Partial}, {parts[1].Partial}}}
	b.SetBytes(sectionBytes(parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(res.Map()); n != 500_000 {
			b.Fatalf("map of %d keys, want 500000", n)
		}
	}
}

// BenchmarkReduceTail is tera-mem's reduce tail as one wall: two reduce
// tasks fold 16 map tasks' sections each (250 k keys a partition) at once
// and hand their chunks to the master's outputs, each in a buffer of its
// own as a received frame is, while the union builds Run's map; the wall
// ends with the map in hand.
func BenchmarkReduceTail(b *testing.B) {
	const R, keys = 2, 500_000
	secs := teraSections(32, keys/32)
	job := benchJob(true)
	b.SetBytes(sectionBytes(secs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, quit := newOutputs(R, keys), make(chan struct{})
		union := make(chan map[string]float64, 1)
		go func() { union <- o.union(quit) }()
		var wg sync.WaitGroup
		for p := 0; p < R; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f := newSpillFolder(0, "", "bench")
				for _, s := range secs[p*len(secs)/R : (p+1)*len(secs)/R] {
					f.add(s.ID, s.Partial)
				}
				out := foldOut{cut: func(k int, chunk section, projected int64) error {
					return o.admit(p, k, section(strings.Clone(string(chunk))), false, projected)
				}}
				_, err := f.fold(job, &out)
				if err == nil {
					err = o.admit(p, out.k, section(strings.Clone(string(out.b.section()))), true, 0)
				}
				if err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		// The union returns once every partition's last chunk is in;
		// quit closes after it, as in reduceTail: closed earlier it could
		// win the union's select over a pending wake.
		m := <-union
		close(quit)
		if len(m) != keys {
			b.Fatalf("map of %d keys, want %d", len(m), keys)
		}
	}
}
