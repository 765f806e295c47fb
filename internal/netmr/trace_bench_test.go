package netmr

import (
	"context"
	"testing"
	"time"
)

// benchmarkTracedRealNet runs whole wordcount jobs over a loopback
// cluster with tracing on or off — the on/off pair bounds the tracing
// tax (span recording, piggybacked summaries, assembly) on real jobs.
func benchmarkTracedRealNet(b *testing.B, traced bool) {
	registry, err := NewRegistry(wordCountJob())
	if err != nil {
		b.Fatal(err)
	}
	master, err := NewMaster(registry, MasterConfig{Trace: traced})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer master.Close()
	const workers = 4
	for i := 0; i < workers; i++ {
		reg, err := NewRegistry(wordCountJob())
		if err != nil {
			b.Fatal(err)
		}
		w, err := NewWorker(reg)
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
	lines, err := benchLines(8000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := master.Run(context.Background(), "wordcount", lines, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if traced {
		trc := master.LastTrace()
		if trc == nil {
			b.Fatal("traced benchmark produced no trace")
		}
		if trc.OpenLaunches() != 0 {
			b.Fatal("open launches after benchmark run")
		}
	}
}

func BenchmarkTracedRealNet(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchmarkTracedRealNet(b, false) })
	b.Run("on", func(b *testing.B) { benchmarkTracedRealNet(b, true) })
}
