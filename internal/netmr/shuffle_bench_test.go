package netmr

import (
	"fmt"
	"testing"
)

// benchFetchWorker boots one worker's shuffle plane — store filled with
// a run's map outputs, fetch listener serving — and returns what a
// reducer needs to gather one partition from it.
func benchFetchWorker(b *testing.B, tasks, keysPerTask, R int) (addr, run string, ids []int) {
	b.Helper()
	reg, err := NewRegistry(wordCountJob())
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorker(reg)
	if err != nil {
		b.Fatal(err)
	}
	run = "bench#1"
	for task := 0; task < tasks; task++ {
		parts := make([]partitionPartial, 0, R)
		for p := 0; p < R; p++ {
			m := make(map[string]float64, keysPerTask)
			for k := 0; k < keysPerTask; k++ {
				m[fmt.Sprintf("fetch-key-%02d-%04d", p, k)] = float64(task + k)
			}
			parts = append(parts, partitionPartial{ID: p, Partial: sectionFromMap(m)})
		}
		if _, _, err := w.store.put(run, task, parts, R); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, task)
	}
	addr, err = w.startFetchListener()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if ln := w.fetchLn; ln != nil {
			_ = ln.Close()
		}
	})
	return addr, run, ids
}

// fetchPartition is one fetch exchange over a fresh dial-per-call
// connection: the unpooled baseline BenchmarkShuffleFetch compares the
// pool against, and the plain client the shuffle-server tests drive.
func fetchPartition(addr, run string, partition int, tasks []int) ([]partitionPartial, int64, error) {
	c, err := dialShuffle(addr)
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = c.close() }()
	return fetchExchange(c, addr, run, partition, tasks)
}

// BenchmarkShuffleFetch quantifies what connection pooling buys on the
// shuffle plane: dial is the old path (TCP handshake per exchange),
// pooled the persistent-connection path. CI gates pooled against dial —
// the pooled variant must cost less per fetched partition and allocate
// less.
func BenchmarkShuffleFetch(b *testing.B) {
	const tasks, keys, R = 8, 200, 3
	b.Run("dial", func(b *testing.B) {
		addr, run, ids := benchFetchWorker(b, tasks, keys, R)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			parts, _, err := fetchPartition(addr, run, i%R, ids)
			if err != nil {
				b.Fatal(err)
			}
			if len(parts) != tasks {
				b.Fatalf("fetched %d parts, want %d", len(parts), tasks)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		addr, run, ids := benchFetchWorker(b, tasks, keys, R)
		p := newShufflePool(shuffleFanout)
		b.Cleanup(p.closeAll)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			parts, _, err := p.fetchPartition(addr, run, i%R, ids)
			if err != nil {
				b.Fatal(err)
			}
			if len(parts) != tasks {
				b.Fatalf("fetched %d parts, want %d", len(parts), tasks)
			}
		}
	})
}
