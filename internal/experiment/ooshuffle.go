package experiment

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"ipso/internal/netmr"
	"ipso/internal/stats"
	"ipso/internal/workload"
)

// OOShuffle is the out-of-core shuffle study: the memory wall of the
// paper's fixed-size taxonomy (type IVs — speedup that peaks and then
// degrades once the per-node working set no longer fits) reproduced on
// the real TCP runtime by sweeping the workers' spill budget at fixed
// scale, then refitting ε(n) and q(n) with the spill path on vs off.
//
// Part 1 holds the cluster and input fixed and tightens the budget: the
// output must stay byte-identical at every budget while SpilledBytes
// grows and the resident peak stays under the ceiling — the runtime
// trading wall clock for memory instead of failing. Part 2 sweeps the
// worker count with the spill path off (unbounded memory) and on (tight
// budget) and refits the serial fraction ε(n) and overhead ratio q(n)
// on both series: spilling is pure per-worker overhead, so it must
// surface in q(n), not in ε(n).
func OOShuffle(ctx context.Context, workerCounts []int, lines, shards, reducers int, budgets []int64) (Report, error) {
	if len(workerCounts) < 2 || lines < 1 || shards < 1 || reducers < 1 || len(budgets) < 2 {
		return Report{}, fmt.Errorf(
			"experiment: invalid ooshuffle grid (workers=%v lines=%d shards=%d reducers=%d budgets=%v)",
			workerCounts, lines, shards, reducers, budgets)
	}
	if budgets[0] != 0 {
		return Report{}, fmt.Errorf("experiment: ooshuffle budgets must start with 0 (the unconstrained reference), got %v", budgets)
	}
	input, err := workload.TextLines(lines, 10, 42)
	if err != nil {
		return Report{}, err
	}
	rep := Report{ID: "ooshuffle", Title: "Out-of-core shuffle: bounded-memory spill vs the in-memory path"}

	if err := ooShuffleBudgetSweep(ctx, &rep, input, workerCounts[len(workerCounts)-1], shards, reducers, budgets); err != nil {
		return Report{}, err
	}
	if err := ooShuffleScaleSweep(ctx, &rep, input, workerCounts, shards, reducers, budgets[len(budgets)-1]); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// ooShuffleBudgetSweep fixes the cluster and tightens the spill budget:
// the memory-wall shape at constant scale.
func ooShuffleBudgetSweep(ctx context.Context, rep *Report, input []string, workers, shards, reducers int, budgets []int64) error {
	tbl := Table{
		Title: fmt.Sprintf("wordcount at n=%d, R=%d: spill budget sweep (wall-clock; machine-dependent)",
			workers, reducers),
		Headers: []string{"budget KiB", "total ms", "spill runs", "spilled KiB", "peak store KiB", "comp KiB saved", "identical"},
	}
	var reference map[string]float64
	var xs, wall []float64
	for _, budget := range budgets {
		out, st, _, peak, err := runOOShuffleWordCount(ctx, input, workers, shards, reducers, budget, false)
		if err != nil {
			return err
		}
		identical := true
		if reference == nil {
			reference = out
		} else if !reflect.DeepEqual(out, reference) {
			identical = false
		}
		if !identical {
			return fmt.Errorf("experiment: ooshuffle at budget %d produced a different result than the in-memory reference", budget)
		}
		if budget > 0 {
			if peak > budget {
				return fmt.Errorf("experiment: ooshuffle at budget %d held %d resident bytes — the budget was exceeded", budget, peak)
			}
			if budget == budgets[len(budgets)-1] && st.SpilledBytes == 0 {
				return fmt.Errorf("experiment: ooshuffle at the tightest budget %d never spilled — the sweep is not exercising the out-of-core path", budget)
			}
		}
		label := "unbounded"
		if budget > 0 {
			label = fmt.Sprintf("%.0f", float64(budget)/1024)
		}
		tbl.Rows = append(tbl.Rows, []string{
			label,
			fmt.Sprintf("%.2f", positiveMs(st.TotalWall)),
			fmt.Sprintf("%d", st.SpillRuns),
			fmt.Sprintf("%.1f", float64(st.SpilledBytes)/1024),
			fmt.Sprintf("%.1f", float64(peak)/1024),
			fmt.Sprintf("%.1f", float64(st.CompressedBytes)/1024),
			"yes",
		})
		xs = append(xs, float64(budget))
		wall = append(wall, positiveMs(st.TotalWall))
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series, Series{Name: "ooshuffle/budget-wall-ms", X: xs, Y: wall})
	rep.Notes = append(rep.Notes,
		"every budget produced the byte-identical output; the spill path trades wall clock for a bounded resident set — the memory wall as a knob, not a cliff")
	return nil
}

// ooShuffleScaleSweep sweeps the worker count with the spill path off and
// on, refitting ε(n) (serial fraction, from the traced Ws) and q(n)
// (overhead ratio n·Wo/Wp) on both series.
func ooShuffleScaleSweep(ctx context.Context, rep *Report, input []string, workerCounts []int, shards, reducers int, tightBudget int64) error {
	tbl := Table{
		Title: fmt.Sprintf("spill off vs on (budget %d KiB): traced phase refits (wall-clock; machine-dependent)",
			tightBudget/1024),
		Headers: []string{"workers", "q(n) off", "q(n) on", "Ws ms off", "Ws ms on", "spilled KiB on"},
	}
	var xs, qOff, qOn, wsOff, wsOn []float64
	for _, n := range workerCounts {
		if n < 1 {
			return fmt.Errorf("experiment: invalid worker count %d", n)
		}
		_, _, bdOff, _, err := runOOShuffleWordCount(ctx, input, n, shards, reducers, 0, true)
		if err != nil {
			return err
		}
		_, stOn, bdOn, _, err := runOOShuffleWordCount(ctx, input, n, shards, reducers, tightBudget, true)
		if err != nil {
			return err
		}
		fN := float64(n)
		qo := clampPositive(fN * bdOff.Wo / clampPositive(bdOff.Wp))
		qn := clampPositive(fN * bdOn.Wo / clampPositive(bdOn.Wp))
		wo := clampPositive(bdOff.Ws * 1e3)
		wn := clampPositive(bdOn.Ws * 1e3)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n), f2(qo), f2(qn),
			fmt.Sprintf("%.3f", wo), fmt.Sprintf("%.3f", wn),
			fmt.Sprintf("%.1f", float64(stOn.SpilledBytes)/1024),
		})
		xs = append(xs, fN)
		qOff, qOn = append(qOff, qo), append(qOn, qn)
		wsOff, wsOn = append(wsOff, wo), append(wsOn, wn)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series,
		Series{Name: "ooshuffle/q-off", X: xs, Y: qOff},
		Series{Name: "ooshuffle/q-on", X: xs, Y: qOn},
	)
	qOffFit, err := stats.PowerLaw(xs, qOff)
	if err != nil {
		return fmt.Errorf("experiment: ooshuffle q(n) fit, spill off: %w", err)
	}
	qOnFit, err := stats.PowerLaw(xs, qOn)
	if err != nil {
		return fmt.Errorf("experiment: ooshuffle q(n) fit, spill on: %w", err)
	}
	epsOffFit, err := stats.PowerLaw(xs, wsOff)
	if err != nil {
		return fmt.Errorf("experiment: ooshuffle ε(n) fit, spill off: %w", err)
	}
	epsOnFit, err := stats.PowerLaw(xs, wsOn)
	if err != nil {
		return fmt.Errorf("experiment: ooshuffle ε(n) fit, spill on: %w", err)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("q(n)=β·n^γ, spill off: %s", qOffFit),
		fmt.Sprintf("q(n)=β·n^γ, spill on:  %s", qOnFit),
		fmt.Sprintf("ε(n)=α·n^δ on Ws ms, spill off: %s", epsOffFit),
		fmt.Sprintf("ε(n)=α·n^δ on Ws ms, spill on:  %s", epsOnFit),
		"spilling is per-worker I/O: it belongs in the overhead ratio q(n), not in the serial fraction ε(n)",
	)
	return nil
}

// clampPositive keeps a measured quantity strictly positive so the
// log-log power fits stay defined on sub-resolution samples.
func clampPositive(v float64) float64 {
	if v < 1e-9 {
		return 1e-9
	}
	return v
}

// runOOShuffleWordCount runs one wordcount job on a fresh in-process
// cluster whose workers run under the given spill budget (0 =
// unconstrained), returning the output, stats, the traced phase
// breakdown (zero unless traced), and the maximum resident peak of any
// worker's intermediate store.
func runOOShuffleWordCount(ctx context.Context, input []string, workers, shards, reducers int, budget int64, traced bool) (map[string]float64, netmr.Stats, netmr.PhaseBreakdown, int64, error) {
	fail := func(err error) (map[string]float64, netmr.Stats, netmr.PhaseBreakdown, int64, error) {
		return nil, netmr.Stats{}, netmr.PhaseBreakdown{}, 0, err
	}
	job := wordCountNetJob()
	registry, err := netmr.NewRegistry(job)
	if err != nil {
		return fail(err)
	}
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{
		Reducers: reducers, Trace: traced,
	})
	if err != nil {
		return fail(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer master.Close()

	spillDir := ""
	if budget > 0 {
		spillDir, err = os.MkdirTemp("", "ooshuffle-*")
		if err != nil {
			return fail(err)
		}
		defer func() { _ = os.RemoveAll(spillDir) }()
	}
	pool := make([]*netmr.Worker, 0, workers)
	defer func() {
		for _, w := range pool {
			w.Stop()
		}
	}()
	for i := 0; i < workers; i++ {
		wreg, err := netmr.NewRegistry(job)
		if err != nil {
			return fail(err)
		}
		w, err := netmr.NewWorker(wreg, netmr.WithWorkerConfig(netmr.WorkerConfig{
			SpillBudget: budget, SpillDir: spillDir,
		}))
		if err != nil {
			return fail(err)
		}
		if err := w.Start(addr); err != nil {
			return fail(err)
		}
		pool = append(pool, w)
	}
	if err := master.WaitForWorkers(workers, 30*time.Second); err != nil {
		return fail(err)
	}
	out, st, err := master.Run(ctx, "wordcount", input, shards)
	if err != nil {
		return fail(err)
	}
	var peak int64
	for _, w := range pool {
		if p, _, _ := w.StoreStats(); p > peak {
			peak = p
		}
	}
	var bd netmr.PhaseBreakdown
	if traced {
		trc := master.LastTrace()
		if trc == nil {
			return fail(fmt.Errorf("experiment: traced ooshuffle run produced no job trace"))
		}
		bd = trc.Breakdown(st)
	}
	return out, st, bd, peak, nil
}
