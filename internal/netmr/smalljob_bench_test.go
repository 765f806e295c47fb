package netmr

import (
	"context"
	"testing"
	"time"

	"ipso/internal/workload"
)

// BenchmarkSmallJob is one job's fixed cost: a 400-line, 8-shard
// wordcount on a standing loopback cluster of 2 workers with R = 2, the
// ledger's smalljobs shape. Per op it pays the dispatch of both task
// frames, the replica pushes, the reduce launches and their location
// updates, the result frames and the release, against about 45 µs of
// map work per shard; allocs/op counts the frames and buffers of them.
func BenchmarkSmallJob(b *testing.B) {
	registry, err := NewRegistry(wordCountJob())
	if err != nil {
		b.Fatal(err)
	}
	master, err := NewMaster(registry, MasterConfig{Reducers: 2})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer master.Close()
	const workers = 2
	for i := 0; i < workers; i++ {
		w, err := NewWorker(registry)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			b.Fatal(err)
		}
		defer w.Stop()
	}
	if err := master.WaitForWorkers(workers, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	lines, err := workload.TextLines(400, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := master.RunResult(ctx, "wordcount", lines, 8); err != nil {
			b.Fatal(err)
		}
	}
}
