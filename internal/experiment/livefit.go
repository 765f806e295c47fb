package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"

	"ipso/internal/core"
	"ipso/internal/netmr"
	"ipso/internal/obs"
	"ipso/internal/workload"
)

// LiveFit closes the telemetry loop the paper leaves as future work: the
// real TCP MapReduce runtime runs with distributed tracing on, every
// job's wall clock is attributed into the measured Wp/Ws/Wo phases from
// the assembled master+worker spans (Eq. 14-17's measurable quantities),
// the per-degree phase accounts stream through core.LiveFeed into the
// scaling-model zoo, and the continuously refitted selection — winning
// model, AICc scoreboard, fitted parameters, predicted optimal degree —
// is exported on the same /metrics endpoint the cluster already serves.
//
// The experiment validates the loop twice over. A synthetic feed with a
// known ground truth (Eq. 17 with η = 1, β = 0.02, γ = 1.5) checks the
// pipeline end to end where the right answer is analytic: the
// phase-informed IPSO member must win the zoo and the fitted optimal
// degree must land on n* = (1/(β(γ−1)))^(1/γ) ≈ 21.5. The live feed from
// the real traced cluster is then held to structural invariants (a zoo
// member selected, finite scores, optimal degree in range) and its
// exported gauges are scraped back over HTTP and strict-parsed — the
// measured values themselves are machine-dependent.
func LiveFit(ctx context.Context, workerCounts []int, lines, shards int) (Report, error) {
	if len(workerCounts) < 4 || lines < 1 || shards < 1 {
		return Report{}, fmt.Errorf("experiment: livefit needs >= 4 worker counts (got %v), positive lines/shards", workerCounts)
	}
	rep := Report{ID: "livefit", Title: "Live-telemetry-fed model fitting: traced netmr phases into the zoo"}

	// Part 1: synthetic ground truth through the identical pipeline.
	synth, err := liveFitSynthetic(&rep)
	if err != nil {
		return Report{}, err
	}
	_ = synth

	// Part 2: the real traced cluster.
	if err := liveFitReal(ctx, &rep, workerCounts, lines, shards); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// liveFitSynthetic feeds exact Eq. 17 observations (η = 1, so the whole
// workload is parallelizable and S(n) = n/(1+β·n^γ)) and asserts the
// live fit recovers the generating model and its optimal degree.
func liveFitSynthetic(rep *Report) (core.ModelSelection, error) {
	const beta, gamma = 0.02, 1.5
	reg := obs.NewRegistry()
	feed := core.NewLiveFeed(core.LiveFeedOptions{MaxN: 64, Metrics: reg})
	var xs, qs []float64
	for _, n := range []float64{1, 2, 4, 8, 16, 32, 64} {
		wo := beta * math.Pow(n, gamma)
		// Fixed-time workload: Wp(n) = n·Wp(1), every task takes 1 s, no
		// serial phase — the measured shape of Eq. 17's derivation.
		o := core.Observation{N: n, Wp: n, Ws: 0, Wo: wo, MaxTask: 1}
		if err := feed.Observe(o); err != nil {
			return core.ModelSelection{}, err
		}
		xs = append(xs, n)
		qs = append(qs, n*wo/o.Wp)
	}
	sel, err := feed.Refit()
	if err != nil {
		return sel, fmt.Errorf("experiment: synthetic live refit: %w", err)
	}
	best, _, err := feed.Best()
	if err != nil {
		return sel, err
	}
	if best.Name() != "ipso" {
		return sel, fmt.Errorf("experiment: synthetic Eq. 17 feed selected %q, want ipso", best.Name())
	}
	nStar, sStar, err := feed.OptimalN()
	if err != nil {
		return sel, err
	}
	// Analytic optimum: n* = (1/(β(γ−1)))^(1/γ) = 100^(2/3) ≈ 21.5; the
	// integer argmax must land beside it.
	want := math.Pow(1/(beta*(gamma-1)), 1/gamma)
	if nStar < int(want)-1 || nStar > int(want)+2 {
		return sel, fmt.Errorf("experiment: synthetic optimal n = %d, want near %.1f", nStar, want)
	}
	// The gauges must agree with the returned values — that is the
	// /metrics contract the control plane will consume.
	fams, err := scrapeRegistry(reg)
	if err != nil {
		return sel, err
	}
	if err := checkLiveFitGauges(fams, best.Name(), nStar); err != nil {
		return sel, err
	}

	tbl := Table{
		Title:   fmt.Sprintf("synthetic Eq. 17 feed (η=1, β=%g, γ=%g): zoo scoreboard", beta, gamma),
		Headers: []string{"model", "AICc", "selected"},
	}
	for i, f := range sel.Fits {
		mark := ""
		if i == sel.Best {
			mark = "*"
		}
		tbl.Rows = append(tbl.Rows, []string{f.Name, f2(f.AICc), mark})
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series, Series{Name: "livefit/synthetic-q", X: xs, Y: qs})
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"synthetic feed: selected %s, optimal n = %d (S = %s, analytic n* = %.1f)",
		best.Name(), nStar, f2(sStar), want))
	return sel, nil
}

// liveFitReal runs the traced cluster at every degree, attributes each
// run's phases from its job trace, feeds the live fit, and scrapes the
// exported selection back through the strict Prometheus parser.
func liveFitReal(ctx context.Context, rep *Report, workerCounts []int, lines, shards int) error {
	input, err := workload.TextLines(lines, 10, 42)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	maxN := 4 * workerCounts[len(workerCounts)-1]
	feed := core.NewLiveFeed(core.LiveFeedOptions{MaxN: maxN, Metrics: reg})

	tbl := Table{
		Title:   "traced wordcount over localhost TCP: measured phase attribution (wall-clock; machine-dependent)",
		Headers: []string{"workers", "Wp ms", "Ws ms", "Wo ms", "max-task ms", "total ms", "q(n)"},
	}
	var xs, qs []float64
	for _, n := range workerCounts {
		if n < 1 {
			return fmt.Errorf("experiment: invalid worker count %d", n)
		}
		bd, err := runTracedWordCount(ctx, input, n, shards)
		if err != nil {
			return err
		}
		// The reduce tasks are parallel work too: their fold joins Wp, and
		// the slowest one the critical path MaxTask stands for.
		o := core.Observation{N: float64(n), Wp: bd.Wp + bd.Reduce, Ws: bd.Ws, Wo: bd.Wo, MaxTask: bd.MaxTask + bd.MaxReduce}
		if o.Wp <= 0 {
			// Sub-resolution compute on a tiny grid: keep the feed alive
			// rather than fail the whole experiment.
			o.Wp = 1e-9
		}
		if err := feed.Observe(o); err != nil {
			return err
		}
		q := o.N * o.Wo / o.Wp
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", o.Wp*1e3),
			fmt.Sprintf("%.2f", o.Ws*1e3),
			fmt.Sprintf("%.2f", o.Wo*1e3),
			fmt.Sprintf("%.2f", o.MaxTask*1e3),
			fmt.Sprintf("%.2f", bd.TotalWall*1e3),
			f2(q),
		})
		xs = append(xs, o.N)
		qs = append(qs, q)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series, Series{Name: "livefit/measured-q", X: xs, Y: qs})

	sel, err := feed.Refit()
	if err != nil {
		return fmt.Errorf("experiment: live refit from traced cluster: %w", err)
	}
	best, _, err := feed.Best()
	if err != nil {
		return err
	}
	known := map[string]bool{"ipso": true, "usl": true, "amdahl": true, "gustafson": true, "power": true}
	if !known[best.Name()] {
		return fmt.Errorf("experiment: live fit selected unknown model %q", best.Name())
	}
	fit, ok := sel.BestFit()
	if !ok || math.IsNaN(fit.AICc) {
		return fmt.Errorf("experiment: live fit produced no scored winner")
	}
	nStar, sStar, err := feed.OptimalN()
	if err != nil {
		return err
	}
	if nStar < 1 || nStar > maxN {
		return fmt.Errorf("experiment: fitted optimal n = %d outside [1, %d]", nStar, maxN)
	}

	// Scrape the selection back over a real HTTP /metrics endpoint and
	// hold the output to the strict exposition grammar.
	srv, err := obs.Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return fmt.Errorf("experiment: /metrics scrape failed strict parse: %w", err)
	}
	if err := checkLiveFitGauges(fams, best.Name(), nStar); err != nil {
		return err
	}

	zooTbl := Table{
		Title:   "live zoo scoreboard from the traced cluster",
		Headers: []string{"model", "AICc", "selected"},
	}
	for i, f := range sel.Fits {
		mark := ""
		if i == sel.Best {
			mark = "*"
		}
		zooTbl.Rows = append(zooTbl.Rows, []string{f.Name, f2(f.AICc), mark})
	}
	rep.Tables = append(rep.Tables, zooTbl)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"live fit: selected %s, predicted optimal n = %d (S = %s) on [1, %d]; selection exported and re-scraped from /metrics",
		best.Name(), nStar, f2(sStar), maxN))
	return nil
}

// scrapeRegistry renders a registry and strict-parses it back — the
// in-process equivalent of a /metrics round trip.
func scrapeRegistry(reg *obs.Registry) ([]obs.PromFamily, error) {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(reg.WritePrometheus(pw)) }()
	return obs.ParsePrometheus(pr)
}

// checkLiveFitGauges asserts the exported live-fit selection matches the
// in-process values: the winner's selected_model gauge is 1 and
// optimal_n carries the fitted degree.
func checkLiveFitGauges(fams []obs.PromFamily, model string, nStar int) error {
	var selected, optimal *obs.PromFamily
	for i := range fams {
		switch fams[i].Name {
		case "core_livefit_selected_model":
			selected = &fams[i]
		case "core_livefit_optimal_n":
			optimal = &fams[i]
		}
	}
	if selected == nil || optimal == nil {
		return fmt.Errorf("experiment: live-fit families missing from scrape (selected=%v optimal=%v)", selected != nil, optimal != nil)
	}
	s, ok := selected.Sample("core_livefit_selected_model", [2]string{"model", model})
	if !ok || s.Value != 1 {
		return fmt.Errorf("experiment: core_livefit_selected_model{model=%q} != 1 in scrape", model)
	}
	o, ok := optimal.Sample("core_livefit_optimal_n")
	if !ok || o.Value != float64(nStar) {
		return fmt.Errorf("experiment: core_livefit_optimal_n = %g in scrape, want %d", o.Value, nStar)
	}
	return nil
}

// runTracedWordCount runs one traced wordcount job on a fresh in-process
// cluster and returns the trace's phase attribution.
func runTracedWordCount(ctx context.Context, input []string, workers, shards int) (netmr.PhaseBreakdown, error) {
	master, stop, err := startCluster(wordCountNetJob(), workers, netmr.MasterConfig{
		Reducers: 4, Trace: true, Metrics: obs.NewRegistry(),
	}, nil)
	if err != nil {
		return netmr.PhaseBreakdown{}, err
	}
	defer stop()
	_, stats, err := master.RunResult(ctx, "wordcount", input, shards)
	if err != nil {
		return netmr.PhaseBreakdown{}, err
	}
	trc := master.LastTrace()
	if trc == nil {
		return netmr.PhaseBreakdown{}, fmt.Errorf("experiment: traced run produced no job trace")
	}
	if open := trc.OpenLaunches(); open != 0 {
		return netmr.PhaseBreakdown{}, fmt.Errorf("experiment: job trace left %d launches open", open)
	}
	return trc.Breakdown(stats), nil
}
