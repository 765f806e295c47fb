package experiment

import (
	"context"
	"fmt"
	"time"

	"ipso/internal/netmr"
	"ipso/internal/stats"
	"ipso/internal/workload"
)

// wordCountNetJob is the WordCount job the real-cluster experiments run.
// Map splits on ASCII whitespace by hand (strings.Fields allocates a
// []string per record; on the hot path that was a fifth of the worker's
// allocations), and Combine declares the sum associative so workers fold
// counts during emit instead of buffering every occurrence.
func wordCountNetJob() netmr.Job {
	return netmr.Job{
		Name: "wordcount",
		Map: func(record string, emit func(string, float64)) {
			start := -1
			for i := 0; i < len(record); i++ {
				switch record[i] {
				case ' ', '\t', '\n', '\r':
					if start >= 0 {
						emit(record[start:i], 1)
						start = -1
					}
				default:
					if start < 0 {
						start = i
					}
				}
			}
			if start >= 0 {
				emit(record[start:], 1)
			}
		},
		Reduce: func(_ string, values []float64) float64 {
			total := 0.0
			for _, v := range values {
				total += v
			}
			return total
		},
		Combine: func(acc, v float64) float64 { return acc + v },
	}
}

// RealNet measures the actual TCP MapReduce runtime: the same WordCount
// computation is run over the network with growing worker pools and the
// measured wall-clock speedups (against the one-worker execution) are
// reported alongside the phase decomposition: the split wall (scatter +
// map), the reduce wall (R reduce tasks on the workers) and the master's
// merge wall with the union of the R partitions into one map after it,
// timed here around Result.Map — the serial Ws(n) left on the master. Unlike every other experiment here, these
// are genuine measurements on the host machine — noisy and
// hardware-dependent, included to close the loop between the simulated
// case studies and a running distributed system.
//
// Interpretation caveats: in-process workers share the host's cores, so
// the measured speedup is capped by the physical core count (≈1 on a
// single-vCPU box no matter how many workers join), and the master-side
// scatter encodes every shard's records into its task frame — a real
// instance of scale-out-induced serial work. Both effects are the resource
// constraints the paper's model is about, showing up on a real wall
// clock.
func RealNet(ctx context.Context, workerCounts []int, lines, shards int) (Report, error) {
	if len(workerCounts) == 0 || lines < 1 || shards < 1 {
		return Report{}, fmt.Errorf("experiment: invalid realnet grid (workers=%v lines=%d shards=%d)", workerCounts, lines, shards)
	}
	input, err := workload.TextLines(lines, 10, 42)
	if err != nil {
		return Report{}, err
	}

	rep := Report{ID: "realnet", Title: "Real TCP MapReduce runtime: measured wall-clock phases and speedups"}
	tbl := Table{
		Title:   "wordcount over localhost TCP, R=4 reduce tasks (wall-clock; machine-dependent)",
		Headers: []string{"workers", "split ms", "reduce ms", "merge ms", "total ms", "speedup vs 1 worker"},
	}
	var base time.Duration
	var xs, ys, merge []float64
	for _, n := range workerCounts {
		if n < 1 {
			return Report{}, fmt.Errorf("experiment: invalid worker count %d", n)
		}
		st, union, err := runRealWordCount(ctx, input, n, shards)
		if err != nil {
			return Report{}, err
		}
		total := st.TotalWall + union
		if base == 0 {
			base = total
		}
		speedup := float64(base) / float64(total)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", float64(st.SplitWall)/1e6),
			fmt.Sprintf("%.1f", float64(st.ReduceWall)/1e6),
			fmt.Sprintf("%.2f", float64(st.MergeWall+union)/1e6),
			fmt.Sprintf("%.1f", float64(total)/1e6),
			f2(speedup),
		})
		xs = append(xs, float64(n))
		ys = append(ys, speedup)
		merge = append(merge, positiveMs(st.MergeWall+union))
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series, Series{Name: "realnet/wordcount", X: xs, Y: ys})
	rep.Series = append(rep.Series, Series{Name: "realnet/merge-ms", X: xs, Y: merge})

	// Eq. 10's IN(n) term grows with the in-proportion ratio ε(n) ≈ α·n^δ
	// (Eq. 14): fit it on the measured merge walls, the serial work the
	// reduce tasks leave on the master.
	if len(xs) >= 2 {
		if fit, err := stats.PowerLaw(xs, merge); err == nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ε(n)=α·n^δ on master merge ms: %s", fit))
		}
	}
	return rep, nil
}

// positiveMs converts a duration to milliseconds clamped to a small
// positive floor, keeping the power-law refit (which needs y > 0) alive
// when a merge window rounds to zero.
func positiveMs(d time.Duration) float64 {
	ms := float64(d) / 1e6
	if ms < 1e-3 {
		return 1e-3
	}
	return ms
}

// runRealWordCount runs the job once on a fresh cluster of workers and
// returns its stats and how long the union of its output into one map
// took.
func runRealWordCount(ctx context.Context, input []string, workers, shards int) (netmr.Stats, time.Duration, error) {
	job := wordCountNetJob()
	registry, err := netmr.NewRegistry(job)
	if err != nil {
		return netmr.Stats{}, 0, err
	}
	// Batched dispatch amortizes framing and syscalls across shards; the
	// worker still acks each shard individually, so the phase stats keep
	// per-shard resolution. R is pinned to 4 (not GOMAXPROCS) so runs
	// compare across machines.
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{Reducers: 4})
	if err != nil {
		return netmr.Stats{}, 0, err
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		return netmr.Stats{}, 0, err
	}
	defer master.Close()

	stops := make([]func(), 0, workers)
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < workers; i++ {
		wreg, err := netmr.NewRegistry(job)
		if err != nil {
			return netmr.Stats{}, 0, err
		}
		w, err := netmr.NewWorker(wreg)
		if err != nil {
			return netmr.Stats{}, 0, err
		}
		if err := w.Start(addr); err != nil {
			return netmr.Stats{}, 0, err
		}
		stops = append(stops, w.Stop)
	}
	if err := master.WaitForWorkers(workers, 30*time.Second); err != nil {
		return netmr.Stats{}, 0, err
	}
	res, stats, err := master.RunResult(ctx, "wordcount", input, shards)
	if err != nil {
		return stats, 0, err
	}
	start := time.Now()
	res.Map()
	return stats, time.Since(start), nil
}
