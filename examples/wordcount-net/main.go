// WordCount (distributed): run the REAL TCP master/worker MapReduce
// runtime on localhost — scatter dictionary text across network workers,
// barrier-synchronize, merge serially at the master — and read the IPSO
// phase decomposition off actual wall clocks.
//
// Run with: go run ./examples/wordcount-net
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"ipso/internal/netmr"
	"ipso/internal/workload"
)

func main() {
	job := netmr.Job{
		Name: "wordcount",
		Map: func(record string, emit func(string, float64)) {
			for _, w := range strings.Fields(record) {
				emit(w, 1)
			}
		},
		Reduce: func(_ string, values []float64) float64 {
			total := 0.0
			for _, v := range values {
				total += v
			}
			return total
		},
	}

	registry, err := netmr.NewRegistry(job)
	if err != nil {
		log.Fatal(err)
	}
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer master.Close()
	fmt.Printf("master listening on %s\n", addr)

	const workers = 4
	for i := 0; i < workers; i++ {
		reg, err := netmr.NewRegistry(job)
		if err != nil {
			log.Fatal(err)
		}
		w, err := netmr.NewWorker(reg)
		if err != nil {
			log.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			log.Fatal(err)
		}
		defer w.Stop()
	}
	if err := master.WaitForWorkers(workers, 5*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d workers joined over TCP\n\n", master.WorkerCount())

	lines, err := workload.TextLines(100000, 10, 42)
	if err != nil {
		log.Fatal(err)
	}
	counts, stats, err := master.Run(context.Background(), "wordcount", lines, 16)
	if err != nil {
		log.Fatal(err)
	}

	totalWords := 0.0
	for _, c := range counts {
		totalWords += c
	}
	fmt.Printf("counted %.0f words, %d distinct keys (dictionary size %d)\n",
		totalWords, len(counts), workload.DictionarySize)
	fmt.Printf("split phase (scatter + parallel map):  %v\n", stats.SplitWall)
	fmt.Printf("reduce phase (%d reduce tasks, on workers): %v\n", stats.ReduceTasks, stats.ReduceWall)
	fmt.Printf("merge window (at the master):          %v\n", stats.MergeWall)
	fmt.Printf("end-to-end wall:                       %v\n", stats.TotalWall)
	fmt.Printf("reassignments after failures:          %d\n", stats.Reassignments)
	fmt.Println("\nthe split/reduce/merge wall clocks are the Wp/Ws measurements the")
	fmt.Println("IPSO estimator consumes — here from a real network execution. The")
	fmt.Println("reduce tasks fold on the workers, so the master's serial Ws is only")
	fmt.Println("the union of their disjoint partitions into one map.")
}
