package experiment

import (
	"context"
	"fmt"
	"reflect"

	"ipso/internal/netmr"
	"ipso/internal/stats"
	"ipso/internal/workload"
)

// PipeShuffle is the pipelined-shuffle study: a traced wordcount run per
// worker count, whose reduce tasks launch on the first stored map output
// and receive the later locations over morelocs frames, so their fetches
// hide under the map tail. The output must equal the local reference —
// pipelining may only move work in time, never change it — and the
// refitted overhead ratio q(n) = n·Wo/Wp shows what the hidden fetch
// window buys: time a reducer spends fetching inside the map window is
// covered by MaxTask and leaves Wo. How much hides is machine-dependent
// (a single-core host cannot overlap map and fetch at all), so only the
// output identity is asserted.
func PipeShuffle(ctx context.Context, workerCounts []int, lines, shards, reducers int) (Report, error) {
	if len(workerCounts) < 2 || lines < 1 || shards < 1 || reducers < 1 {
		return Report{}, fmt.Errorf(
			"experiment: invalid pipeshuffle grid (workers=%v lines=%d shards=%d reducers=%d)",
			workerCounts, lines, shards, reducers)
	}
	input, err := workload.TextLines(lines, 10, 42)
	if err != nil {
		return Report{}, err
	}
	// wordcount's reduce is the sum, so the local reference adds up emits.
	want, job := map[string]float64{}, wordCountNetJob()
	for _, rec := range input {
		job.Map(rec, func(k string, v float64) { want[k] += v })
	}
	rep := Report{ID: "pipeshuffle", Title: "Pipelined shuffle: reduce tasks launched under the map tail"}
	tbl := Table{
		Title:   fmt.Sprintf("wordcount, R=%d: traced refits (wall-clock; machine-dependent)", reducers),
		Headers: []string{"workers", "q(n)", "hidden fetch ms", "early launches", "identical"},
	}
	var xs, qs []float64
	for _, n := range workerCounts {
		if n < 1 {
			return Report{}, fmt.Errorf("experiment: invalid worker count %d", n)
		}
		out, st, bd, err := runPipeShuffleWordCount(ctx, input, n, shards, reducers)
		if err != nil {
			return Report{}, err
		}
		if !reflect.DeepEqual(out, want) {
			return Report{}, fmt.Errorf("experiment: pipeshuffle at n=%d differs from the local reference", n)
		}
		fN := float64(n)
		q := clampPositive(fN * bd.Wo / clampPositive(bd.Wp))
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n), f2(q),
			fmt.Sprintf("%.3f", bd.HiddenFetch*1e3),
			fmt.Sprintf("%d", st.EarlyReduceTasks),
			"yes",
		})
		xs, qs = append(xs, fN), append(qs, q)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series, Series{Name: "pipeshuffle/q", X: xs, Y: qs})
	fit, err := stats.PowerLaw(xs, qs)
	if err != nil {
		return Report{}, fmt.Errorf("experiment: pipeshuffle q(n) fit: %w", err)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("q(n)=β·n^γ: %s", fit),
		"every operating point produced the local reference's output; fetch time a reducer hides inside the map window is covered by MaxTask and leaves Wo (the hidden-fetch column records what actually moved under the map window)",
	)
	return rep, nil
}

// runPipeShuffleWordCount measures one traced operating point.
func runPipeShuffleWordCount(ctx context.Context, input []string, workers, shards, reducers int) (map[string]float64, netmr.Stats, netmr.PhaseBreakdown, error) {
	fail := func(err error) (map[string]float64, netmr.Stats, netmr.PhaseBreakdown, error) {
		return nil, netmr.Stats{}, netmr.PhaseBreakdown{}, err
	}
	master, stop, err := startCluster(wordCountNetJob(), workers, netmr.MasterConfig{
		Reducers: reducers, Trace: true,
	}, nil)
	if err != nil {
		return fail(err)
	}
	defer stop()
	out, st, err := master.Run(ctx, "wordcount", input, shards)
	if err != nil {
		return fail(err)
	}
	trc := master.LastTrace()
	if trc == nil {
		return fail(fmt.Errorf("experiment: traced pipeshuffle run produced no job trace"))
	}
	return out, st, trc.Breakdown(st), nil
}
