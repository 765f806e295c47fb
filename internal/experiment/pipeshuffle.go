package experiment

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"ipso/internal/netmr"
	"ipso/internal/stats"
	"ipso/internal/workload"
)

// PipeShuffle is the pipelined-shuffle study: the same traced wordcount
// run with the classic map barrier (every reduce task waits for every
// map output) and with early dispatch (reduce tasks launch on the first
// stored map output; later locations stream to them over morelocs
// frames, so their fetches hide under the map tail). Outputs must be
// byte-identical — pipelining may only move work in time, never change
// it — and the refitted overhead ratio q(n) = n·Wo/Wp quantifies what
// the hidden fetch window buys: time a reducer spends fetching inside
// the map window is covered by MaxTask and leaves Wo. On hosts wide
// enough to actually overlap map and fetch the pipelined q(n) sits at
// or below the barrier q(n); a single-core host cannot overlap and
// the comparison is machine-dependent, so only the output identity is
// asserted, never the wall-clock ordering.
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
	rep := Report{ID: "pipeshuffle", Title: "Pipelined shuffle: early reduce dispatch vs the map barrier"}
	tbl := Table{
		Title: fmt.Sprintf("wordcount, R=%d: barrier vs early dispatch, traced refits (wall-clock; machine-dependent)",
			reducers),
		Headers: []string{"workers", "q(n) barrier", "q(n) early", "hidden fetch ms", "early launches", "locs streamed", "identical"},
	}
	var xs, qBar, qEarly []float64
	for _, n := range workerCounts {
		if n < 1 {
			return Report{}, fmt.Errorf("experiment: invalid worker count %d", n)
		}
		outB, _, bdB, err := runPipeShuffleWordCount(ctx, input, n, shards, reducers, false)
		if err != nil {
			return Report{}, err
		}
		outE, stE, bdE, err := runPipeShuffleWordCount(ctx, input, n, shards, reducers, true)
		if err != nil {
			return Report{}, err
		}
		if !reflect.DeepEqual(outB, outE) {
			return Report{}, fmt.Errorf("experiment: pipeshuffle at n=%d — early dispatch changed the output", n)
		}
		fN := float64(n)
		qb := clampPositive(fN * bdB.Wo / clampPositive(bdB.Wp))
		qe := clampPositive(fN * bdE.Wo / clampPositive(bdE.Wp))
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n), f2(qb), f2(qe),
			fmt.Sprintf("%.3f", bdE.HiddenFetch*1e3),
			fmt.Sprintf("%d", stE.EarlyReduceTasks),
			fmt.Sprintf("%d", stE.LocsStreamed),
			"yes",
		})
		xs = append(xs, fN)
		qBar, qEarly = append(qBar, qb), append(qEarly, qe)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series,
		Series{Name: "pipeshuffle/q-barrier", X: xs, Y: qBar},
		Series{Name: "pipeshuffle/q-early", X: xs, Y: qEarly},
	)
	barFit, err := stats.PowerLaw(xs, qBar)
	if err != nil {
		return Report{}, fmt.Errorf("experiment: pipeshuffle q(n) fit, barrier: %w", err)
	}
	earlyFit, err := stats.PowerLaw(xs, qEarly)
	if err != nil {
		return Report{}, fmt.Errorf("experiment: pipeshuffle q(n) fit, early: %w", err)
	}
	maxN := xs[len(xs)-1]
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("q(n)=β·n^γ, barrier:   %s", barFit),
		fmt.Sprintf("q(n)=β·n^γ, pipelined: %s", earlyFit),
		fmt.Sprintf("fitted overhead ratio at n=%.0f: %.4f barrier vs %.4f pipelined", maxN, barFit.Eval(maxN), earlyFit.Eval(maxN)),
		"every operating point produced the byte-identical output; fetch time a reducer hides inside the map window is covered by MaxTask and leaves Wo — on hosts wide enough to overlap map and fetch this shrinks q(n), while a single-core host cannot overlap at all and pays the streaming machinery instead (the hidden-fetch column records what actually moved under the map window)",
	)
	return rep, nil
}

// runPipeShuffleWordCount measures one traced operating point with early
// reduce dispatch on or off.
func runPipeShuffleWordCount(ctx context.Context, input []string, workers, shards, reducers int, early bool) (map[string]float64, netmr.Stats, netmr.PhaseBreakdown, error) {
	fail := func(err error) (map[string]float64, netmr.Stats, netmr.PhaseBreakdown, error) {
		return nil, netmr.Stats{}, netmr.PhaseBreakdown{}, err
	}
	job := wordCountNetJob()
	registry, err := netmr.NewRegistry(job)
	if err != nil {
		return fail(err)
	}
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{
		Reducers: reducers, Trace: true, EarlyShuffle: early,
	})
	if err != nil {
		return fail(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
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
			return fail(err)
		}
		w, err := netmr.NewWorker(wreg)
		if err != nil {
			return fail(err)
		}
		if err := w.Start(addr); err != nil {
			return fail(err)
		}
		stops = append(stops, w.Stop)
	}
	if err := master.WaitForWorkers(workers, 30*time.Second); err != nil {
		return fail(err)
	}
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
