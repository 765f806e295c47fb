package experiment

import (
	"context"
	"fmt"
	"time"

	"ipso/internal/netmr"
	"ipso/internal/stats"
	"ipso/internal/workload"
)

// distReducePoint is one measured operating point: the master's serial
// work when the R reduce partitions are unioned into one map after the
// job, against RunResult, which hands the partitions back as the
// reducers sent them. The per-key fold runs on the workers either way.
type distReducePoint struct {
	n          int
	serialMs   float64 // master merge window of RunResult plus Result.Map: union of R partitions into one map
	residueMs  float64 // master merge window of RunResult: the sections as received
	reduceMs   float64 // reduce phase wall (part of Wp)
	shuffle    int64   // intermediate bytes moved worker→worker
	reduceRuns int     // reduce tasks executed by workers
}

// distReduceMeasure runs the wordcount workload at each pool size with R
// reduce tasks on the workers, once through RunResult, and reads both
// serial series off that one run: its merge window keeps the sections,
// and the same window plus a timed Result.Map after it is the master
// unioning the R disjoint partitions into one map, the Ws(n) of Eq. 14
// left on it. It then refits ε(n)=α·n^δ on both. Run's own union overlaps
// the reduce tasks, so its merge window no longer holds all of it; timing
// Map keeps the whole union in the serial series.
func distReduceMeasure(ctx context.Context, workerCounts []int, lines, shards, reducers int) ([]distReducePoint, stats.PowerFit, stats.PowerFit, error) {
	if len(workerCounts) < 2 || lines < 1 || shards < 1 || reducers < 1 {
		return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf(
			"experiment: invalid distreduce grid (workers=%v lines=%d shards=%d reducers=%d)",
			workerCounts, lines, shards, reducers)
	}
	input, err := workload.TextLines(lines, 10, 42)
	if err != nil {
		return nil, stats.PowerFit{}, stats.PowerFit{}, err
	}
	points := make([]distReducePoint, 0, len(workerCounts))
	var xs, serial, residue []float64
	for _, n := range workerCounts {
		if n < 1 {
			return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf("experiment: invalid worker count %d", n)
		}
		run, union, err := runDistReduceWordCount(ctx, input, n, shards, reducers)
		if err != nil {
			return nil, stats.PowerFit{}, stats.PowerFit{}, err
		}
		if run.ReduceTasks != reducers {
			return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf(
				"experiment: distreduce at n=%d ran %d of %d reduce tasks on workers", n, run.ReduceTasks, reducers)
		}
		p := distReducePoint{
			n:        n,
			serialMs: positiveMs(run.MergeWall + union), residueMs: positiveMs(run.MergeWall),
			reduceMs: float64(run.ReduceWall) / 1e6,
			shuffle:  run.ShuffleBytes, reduceRuns: run.ReduceTasks,
		}
		points = append(points, p)
		xs = append(xs, float64(n))
		serial = append(serial, p.serialMs)
		residue = append(residue, p.residueMs)
	}
	mapFit, err := stats.PowerLaw(xs, serial)
	if err != nil {
		return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf("experiment: distreduce ε(n) fit, Run: %w", err)
	}
	secFit, err := stats.PowerLaw(xs, residue)
	if err != nil {
		return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf("experiment: distreduce ε(n) fit, RunResult: %w", err)
	}
	return points, mapFit, secFit, nil
}

// DistReduce reports the distributed worker-side reduce study: with the
// per-key fold in R reduce tasks on the workers, the serial work left on
// the master is the union of R disjoint key spaces into one map when the
// caller asks for a map (Result.Map), and nothing when it takes the
// sections (RunResult); the refitted in-proportion ratio ε(n) = α·n^δ (Eq. 14)
// shrinks with it — the model-level statement that reduce moved Ws into
// Wp.
func DistReduce(ctx context.Context, workerCounts []int, lines, shards, reducers int) (Report, error) {
	points, mapFit, secFit, err := distReduceMeasure(ctx, workerCounts, lines, shards, reducers)
	if err != nil {
		return Report{}, err
	}
	rep := Report{ID: "distreduce", Title: "Distributed worker-side reduce: master serial work, one map vs sections"}
	tbl := Table{
		Title: fmt.Sprintf("wordcount, R=%d reduce tasks on workers (wall-clock; machine-dependent)", reducers),
		Headers: []string{"workers", "master union ms (Map)", "master merge ms (RunResult)",
			"reduce wall ms", "shuffle KiB", "reduce tasks"},
	}
	var xs, serial, residue []float64
	for _, p := range points {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", p.n),
			fmt.Sprintf("%.2f", p.serialMs),
			fmt.Sprintf("%.2f", p.residueMs),
			fmt.Sprintf("%.2f", p.reduceMs),
			fmt.Sprintf("%.1f", float64(p.shuffle)/1024),
			fmt.Sprintf("%d", p.reduceRuns),
		})
		xs = append(xs, float64(p.n))
		serial = append(serial, p.serialMs)
		residue = append(residue, p.residueMs)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series,
		Series{Name: "distreduce/serial-ms", X: xs, Y: serial},
		Series{Name: "distreduce/residue-ms", X: xs, Y: residue},
	)
	maxN := xs[len(xs)-1]
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("ε(n)=α·n^δ on master union ms, Map: %s", mapFit),
		fmt.Sprintf("ε(n)=α·n^δ on master merge ms, RunResult: %s", secFit),
		fmt.Sprintf("fitted serial work at n=%.0f: %.3f ms Map vs %.3f ms RunResult (%.1f× smaller with sections)",
			maxN, mapFit.Eval(maxN), secFit.Eval(maxN), mapFit.Eval(maxN)/secFit.Eval(maxN)),
	)
	return rep, nil
}

// runDistReduceWordCount measures one operating point: the job on one
// cluster with R reduce tasks, through RunResult, followed by the union
// into one map, whose time is returned.
func runDistReduceWordCount(ctx context.Context, input []string, workers, shards, reducers int) (run netmr.Stats, union time.Duration, err error) {
	master, stop, err := startCluster(wordCountNetJob(), workers, netmr.MasterConfig{Reducers: reducers}, nil)
	if err != nil {
		return run, union, err
	}
	defer stop()
	res, run, err := master.RunResult(ctx, "wordcount", input, shards)
	if err != nil {
		return run, union, err
	}
	start := time.Now()
	res.Map()
	return run, time.Since(start), nil
}
