package experiment

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ipso/internal/obs"
	"ipso/internal/runner"
	"ipso/internal/stats"
	"ipso/internal/trace"
)

// SelfDiag turns the IPSO methodology on the harness itself: the same
// runner pool that fans out every other experiment executes a CPU-bound
// workload at growing widths, the span recorder wired through the pool
// captures per-task and per-phase wall-clock intervals, and the phase
// workloads Wp/Ws/Wo are extracted from those spans exactly as Section V
// extracts them from Spark log files. The scale-out-induced workload here
// is genuine, not simulated: every task must round-trip through one
// shared service goroutine (the stand-in for a master, lock server, or
// storage node), so queueing delay at that serialized resource — plus,
// past the core count, scheduler time-slicing — inflates task wall time
// as width grows. q(n) = n·Wo(n)/Wp therefore rises with width and β, γ
// are fitted from real measurements with the Levenberg-Marquardt solver,
// the live counterpart of the ablation-contention simulation.
//
// Like realnet, this is a Measured experiment: wall-clock numbers are
// machine-dependent and excluded from byte-identical reproducibility
// checks. The reproduction target is the shape — q(1) = 0, q increasing,
// a non-degenerate power-law fit.

const (
	// selfDiagRequests is how many times each task calls the shared
	// service; selfDiagServiceDiv sets the service time as a fraction of
	// the chunk spun locally between calls.
	selfDiagRequests   = 8
	selfDiagServiceDiv = 4
	// selfDiagRepeats is how many probes each width runs; the one with
	// the median Wp is kept, shedding the outliers a time-shared host
	// injects (the paper likewise reports repeated measurements).
	selfDiagRepeats = 3
)

// selfDiagSink keeps the spin results observable so the compiler cannot
// elide the workload.
var selfDiagSink atomic.Uint64

// selfDiagSpin is the unit of CPU-bound work: rounds of SplitMix64-style
// mixing, deterministic in its seed.
func selfDiagSpin(seed uint64, rounds int) uint64 {
	x := seed
	var acc uint64
	for i := 0; i < rounds; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		acc ^= z
	}
	return acc
}

// selfDiagWidths is the probe grid: every width from 1 up to
// max(4, GOMAXPROCS), capped to keep the probe count bounded on very
// wide hosts. The floor of 4 guarantees oversubscription — and therefore
// a detectable Wo — even on a single-core box.
func selfDiagWidths(maxWidth int) []int {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	if maxWidth > 0 && w > maxWidth {
		w = maxWidth
	}
	widths := make([]int, w)
	for i := range widths {
		widths[i] = i + 1
	}
	return widths
}

// selfDiagProbe runs one width: a serial init phase, the parallel map
// through the instrumented runner pool, and a serial merge, all under a
// span recorder. It returns the recorded spans as the trace log they are
// — the experiment reads only what a log file would hold, never engine
// internals.
func selfDiagProbe(ctx context.Context, width, tasks, rounds int, seed int64) (*trace.Log, error) {
	rec := obs.NewRecorder("selfdiag")
	pctx := runner.WithWorkers(obs.WithRecorder(ctx, rec), width)

	_, sp := obs.StartSpan(pctx, string(trace.PhaseInit))
	initAcc := selfDiagSpin(uint64(seed)|1, rounds)
	sp.End()

	// The shared service: one goroutine serializes a slice of every
	// task's work, the way a master, lock server, or storage node would.
	// Unbuffered channels make each call a strict round-trip, so the
	// queueing delay tasks suffer here is real wall-clock waiting that
	// the runner's task spans capture.
	type request struct {
		seed  uint64
		reply chan uint64
	}
	chunk := rounds / selfDiagRequests
	reqCh := make(chan request)
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		for r := range reqCh {
			r.reply <- selfDiagSpin(r.seed, chunk/selfDiagServiceDiv)
		}
	}()

	outs, err := runner.Map(pctx, tasks, func(ctx context.Context, i int) (uint64, error) {
		local := uint64(runner.TaskSeed(seed, i))
		reply := make(chan uint64, 1)
		for c := 0; c < selfDiagRequests; c++ {
			local ^= selfDiagSpin(local+uint64(c), chunk)
			reqCh <- request{seed: local, reply: reply}
			local ^= <-reply
			// Hand the core over at the service boundary, as a task
			// returning from a blocking RPC would. Without this the
			// scheduler's wake-up affinity lets one task ping-pong with
			// the server while its siblings starve politely, hiding the
			// very contention being measured; yielding restores the fair
			// time-slicing a saturated machine exhibits at coarser
			// granularity anyway.
			runtime.Gosched()
		}
		return local, nil
	})
	close(reqCh)
	served.Wait()
	if err != nil {
		return nil, err
	}

	_, sp = obs.StartSpan(pctx, string(trace.PhaseMerge))
	merged := initAcc
	for _, o := range outs {
		merged ^= selfDiagSpin(o, chunk)
	}
	sp.End()
	selfDiagSink.Store(merged)

	return rec.Log(), nil
}

// selfDiagMedianProbe runs selfDiagRepeats probes at one width and keeps
// the log whose total map workload is the median, so a single
// interference spike from the host does not skew the fit.
func selfDiagMedianProbe(ctx context.Context, width, tasks, rounds int, seed int64) (*trace.Log, error) {
	logs := make([]*trace.Log, 0, selfDiagRepeats)
	for r := 0; r < selfDiagRepeats; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		log, err := selfDiagProbe(ctx, width, tasks, rounds, seed)
		if err != nil {
			return nil, err
		}
		logs = append(logs, log)
	}
	sort.Slice(logs, func(i, j int) bool {
		return logs[i].PhaseTotal(trace.PhaseMap) < logs[j].PhaseTotal(trace.PhaseMap)
	})
	return logs[len(logs)/2], nil
}

// selfDiagPoint is one probed width's extracted workloads (seconds).
type selfDiagPoint struct {
	width   int
	wp      float64 // Σ map task wall time
	ws      float64 // init + merge (serial phases)
	wo      float64 // scale-out-induced inflation over the width-1 Wp
	q       float64 // n·Wo(n)/Wp
	maxTask float64 // E[max task] proxy: measured max map task
}

// SelfDiag probes the harness runner at widths 1..max(4, GOMAXPROCS)
// (capped at maxWidth when positive), extracts the IPSO workloads from
// the recorded spans, and fits q(n) ≈ β·n^γ. rounds sets the per-task
// spin length; tasks scale with the widest probe so every width has work
// to contend over.
func SelfDiag(ctx context.Context, seed int64, maxWidth, rounds int) (Report, error) {
	if rounds < selfDiagRequests*selfDiagServiceDiv {
		return Report{}, fmt.Errorf("experiment: selfdiag rounds %d too small", rounds)
	}
	widths := selfDiagWidths(maxWidth)
	tasks := 8*widths[len(widths)-1] + 16

	// Warm up the pool, the scheduler, and the branch predictors with a
	// discarded probe so the width-1 baseline is not polluted by one-time
	// startup costs.
	if _, err := selfDiagProbe(ctx, widths[len(widths)-1], tasks/4, rounds, seed); err != nil {
		return Report{}, err
	}

	points := make([]selfDiagPoint, 0, len(widths))
	var wp1 float64
	for _, w := range widths {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		log, err := selfDiagMedianProbe(ctx, w, tasks, rounds, seed)
		if err != nil {
			return Report{}, err
		}
		p := selfDiagPoint{
			width: w,
			wp:    log.PhaseTotal(trace.PhaseMap),
			ws:    log.PhaseTotal(trace.PhaseInit) + log.PhaseTotal(trace.PhaseMerge),
		}
		if p.wp <= 0 {
			return Report{}, fmt.Errorf("experiment: selfdiag probe at width %d recorded no map work", w)
		}
		if mt, ok := log.MaxTaskDuration(trace.PhaseMap); ok {
			p.maxTask = mt
		}
		if w == 1 {
			wp1 = p.wp
		}
		// The width-1 run is the pure workload: every second the same
		// tasks take beyond it at width n is work scale-out induced
		// (lock waiting, scheduler time-slicing, cache contention).
		if p.wo = p.wp - wp1; p.wo < 0 {
			p.wo = 0
		}
		p.q = float64(w) * p.wo / wp1
		points = append(points, p)
	}

	rep := Report{ID: "selfdiag", Title: "IPSO self-diagnosis of the harness runner"}
	tbl := Table{
		Title:   fmt.Sprintf("runner pool phase workloads, %d tasks (wall-clock; machine-dependent)", tasks),
		Headers: []string{"width", "Wp ms", "Ws ms", "Wo ms", "q(n)", "max task ms"},
	}
	var xs, ys []float64
	for _, p := range points {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", p.width),
			fmt.Sprintf("%.2f", p.wp*1e3),
			fmt.Sprintf("%.2f", p.ws*1e3),
			fmt.Sprintf("%.2f", p.wo*1e3),
			fmt.Sprintf("%.4f", p.q),
			fmt.Sprintf("%.3f", p.maxTask*1e3),
		})
		xs = append(xs, float64(p.width))
		ys = append(ys, p.q)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series, Series{Name: "selfdiag/q", X: xs, Y: ys})

	rep.Tables = append(rep.Tables, selfDiagFit(points))
	return rep, nil
}

// selfDiagFit fits the overhead trend q(n) ≈ β·n^γ over the widths where
// overhead was detected, seeding Levenberg-Marquardt from the log-log
// regression the way the batch estimator does.
func selfDiagFit(points []selfDiagPoint) Table {
	tbl := Table{
		Title:   "fitted scale-out overhead q(n) ≈ β·n^γ",
		Headers: []string{"parameter", "value"},
	}
	var ns, qs []float64
	for _, p := range points {
		if p.width >= 2 && p.q > 1e-9 {
			ns = append(ns, float64(p.width))
			qs = append(qs, p.q)
		}
	}
	if len(ns) < 3 {
		tbl.Rows = append(tbl.Rows,
			[]string{"beta", "n/a (overhead undetectable)"},
			[]string{"gamma", "n/a"},
			[]string{"fit points", fmt.Sprintf("%d", len(ns))})
		return tbl
	}
	p0 := []float64{qs[len(qs)-1], 1}
	if pl, err := stats.PowerLaw(ns, qs); err == nil && pl.Coeff > 0 {
		p0 = []float64{pl.Coeff, pl.Exponent}
	}
	model := func(p []float64, x float64) float64 { return p[0] * math.Pow(x, p[1]) }
	fit, err := stats.NonlinearFit(model, ns, qs, p0, stats.NLSOptions{})
	if err != nil {
		tbl.Rows = append(tbl.Rows,
			[]string{"beta", fmt.Sprintf("n/a (%v)", err)},
			[]string{"gamma", "n/a"},
			[]string{"fit points", fmt.Sprintf("%d", len(ns))})
		return tbl
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"beta", fmt.Sprintf("%.4g", fit.Params[0])},
		[]string{"gamma", fmt.Sprintf("%.3f", fit.Params[1])},
		[]string{"fit points", fmt.Sprintf("%d", len(ns))},
		[]string{"sse", fmt.Sprintf("%.3g", fit.SSE)})
	return tbl
}
