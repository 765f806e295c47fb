package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ipso/internal/cluster"
	"ipso/internal/core"
	"ipso/internal/runner"
)

// DepMRSweeps names the shared MapReduce case-study sweeps: the figures
// that plot or fit them (fig4-fig7, diag, provisioning) declare it so
// RunAll resolves the sweeps exactly once before fanning out.
const DepMRSweeps = "mr-sweeps"

// Grids collects every grid and tuning knob of the evaluation so one
// value pins the whole run's shape (full paper grids or quick CI grids).
type Grids struct {
	MR       []int     // MapReduce case-study scale-out grid
	Taxonomy []float64 // fig2/fig3 n grid
	Fig8     []float64 // CF reconstruction n grid
	FitMaxN  int       // fig6/fig7 small-n fit window

	LoadLevels     []int // fig9 per-executor load levels N/m
	SparkExecs     []int // fig9/surface executor grid
	FixedSizeTasks int   // fig10 fixed problem size N
	FixedSizeExecs []int // fig10 executor grid
	SurfaceLoads   []int // surface load levels

	CF       []int     // ablation-broadcast n grid
	Memory   []int     // ablation-memory n grid
	Memories []float64 // ablation-memory reducer sizes (bytes)
	Jitter   []int     // ablation-statistic n grid

	ContentionRates           []float64 // ablation-contention service rates
	ContentionRequestsPerTask float64
	ContentionTaskSeconds     float64
	ContentionGrid            []float64

	FixedSizeMRBytes float64 // fixedsize-mr total working set
	FixedSizeMRGrid  []int

	PricePerNodeHour    float64 // provisioning + futurework
	ProvisionMaxN       int
	FutureWorkValidateN int

	RealNetWorkers []int // realnet worker pool sizes
	RealNetLines   int
	RealNetShards  int

	SelfDiagMaxWidth int // selfdiag probe-width cap (0 = uncapped)
	SelfDiagRounds   int // selfdiag per-task spin rounds

	StragglerNs   []int // straggler wave widths n
	StragglerReps int   // straggler Monte Carlo repetitions per n

	LiveFitWorkers []int // livefit traced-cluster worker pool sizes
	LiveFitLines   int   // livefit input size (lines)
	LiveFitShards  int   // livefit shard count

	DistReduceWorkers []int // distreduce worker pool sizes
	DistReduceLines   int   // distreduce input size (lines)
	DistReduceShards  int   // distreduce map shard count
	DistReduceR       int   // distreduce reduce tasks R

	OOShuffleWorkers []int   // ooshuffle worker pool sizes
	OOShuffleLines   int     // ooshuffle input size (lines)
	OOShuffleShards  int     // ooshuffle map shard count
	OOShuffleR       int     // ooshuffle reduce tasks R
	OOShuffleBudgets []int64 // spill budget sweep, bytes; first entry must be 0 (unconstrained)

	PipeShuffleWorkers []int // pipeshuffle worker pool sizes
	PipeShuffleLines   int   // pipeshuffle input size (lines)
	PipeShuffleShards  int   // pipeshuffle map shard count
	PipeShuffleR       int   // pipeshuffle reduce tasks R
}

// DoublingGrid builds a doubling grid from lo that always ends at hi —
// the geometric spacing the paper's log-scale figures use.
func DoublingGrid(lo, hi float64) []float64 {
	var out []float64
	for n := lo; n < hi; n *= 2 {
		out = append(out, n)
	}
	return append(out, hi)
}

// DefaultGrids returns the full paper grids, or the reduced CI-friendly
// grids when quick is set.
func DefaultGrids(quick bool) Grids {
	g := Grids{
		MR:       DefaultMRGrid(),
		Taxonomy: DoublingGrid(1, 200),
		Fig8:     DoublingGrid(5, 150),
		FitMaxN:  16,

		LoadLevels:     DefaultLoadLevels(),
		SparkExecs:     DefaultSparkExecGrid(),
		FixedSizeTasks: DefaultFixedSizeTasks,
		FixedSizeExecs: DefaultFixedSizeExecGrid(),
		SurfaceLoads:   []int{1, 2, 4},

		CF:       []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 120},
		Memory:   []int{1, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48},
		Memories: []float64{1 << 30, 2 << 30, 4 << 30},
		Jitter:   []int{1, 2, 4, 8, 16, 32, 64},

		ContentionRates:           []float64{100, 200},
		ContentionRequestsPerTask: 20,
		ContentionTaskSeconds:     10,
		ContentionGrid:            DoublingGrid(1, 96),

		FixedSizeMRBytes: 16 * cluster.BlockBytes,
		FixedSizeMRGrid:  []int{1, 2, 4, 8, 16, 32, 64},

		PricePerNodeHour:    0.4,
		ProvisionMaxN:       200,
		FutureWorkValidateN: 128,

		RealNetWorkers: []int{1, 2, 4, 8},
		RealNetLines:   20000,
		RealNetShards:  16,

		SelfDiagMaxWidth: 16,
		SelfDiagRounds:   200000,

		StragglerNs:   []int{4, 8, 16, 32, 64, 128},
		StragglerReps: 400,

		LiveFitWorkers: []int{1, 2, 4, 8},
		LiveFitLines:   20000,
		LiveFitShards:  16,

		DistReduceWorkers: []int{1, 2, 4, 8},
		DistReduceLines:   20000,
		DistReduceShards:  16,
		DistReduceR:       8,

		OOShuffleWorkers: []int{1, 2, 4, 8},
		OOShuffleLines:   20000,
		OOShuffleShards:  16,
		OOShuffleR:       8,
		OOShuffleBudgets: []int64{0, 256 << 10, 64 << 10, 16 << 10, 4 << 10},

		PipeShuffleWorkers: []int{1, 2, 4, 8},
		PipeShuffleLines:   20000,
		PipeShuffleShards:  16,
		PipeShuffleR:       8,
	}
	if quick {
		g.MR = []int{1, 2, 4, 8, 16, 24, 32, 48, 64}
		g.Taxonomy = DoublingGrid(1, 64)
		g.SparkExecs = []int{2, 4, 8, 16}
		g.CF = []int{10, 30, 60, 90}
		g.Jitter = []int{1, 4, 16}
		g.RealNetWorkers = []int{1, 2}
		g.SelfDiagMaxWidth = 6
		g.SelfDiagRounds = 60000
		g.StragglerNs = []int{4, 16, 64}
		g.StragglerReps = 120
		g.LiveFitWorkers = []int{1, 2, 3, 4}
		g.LiveFitLines = 4000
		g.LiveFitShards = 8
		g.DistReduceWorkers = []int{1, 2, 4}
		g.DistReduceLines = 4000
		g.DistReduceShards = 8
		g.DistReduceR = 4
		g.OOShuffleWorkers = []int{1, 2, 4}
		g.OOShuffleLines = 4000
		g.OOShuffleShards = 8
		g.OOShuffleR = 4
		g.OOShuffleBudgets = []int64{0, 32 << 10, 4 << 10}
		g.PipeShuffleWorkers = []int{1, 2, 4}
		g.PipeShuffleLines = 4000
		g.PipeShuffleShards = 8
		g.PipeShuffleR = 4
	}
	return g
}

// Config carries everything an experiment needs beyond the context: the
// grids, the root RNG seed that per-task seeds derive from, and the
// memoized shared computations. One Config is built per evaluation run;
// it is safe for concurrent use by the experiments of that run.
type Config struct {
	Grids Grids
	Seed  int64

	mu        sync.Mutex
	mrSweeps  []MRSweep
	sparkMemo memoTable // (app, N, m) speedup points shared across experiments
}

// DefaultConfig builds the standard evaluation configuration.
func DefaultConfig(quick bool) *Config {
	return &Config{Grids: DefaultGrids(quick), Seed: 7}
}

// MRSweeps returns the shared MapReduce case-study sweeps, computing
// them on first use. Concurrent callers block until the first
// computation finishes, so the sweeps are simulated exactly once per
// Config however many experiments need them. Errors are not cached: a
// cancelled first attempt does not poison later runs.
func (c *Config) MRSweeps(ctx context.Context) ([]MRSweep, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mrSweeps != nil {
		return c.mrSweeps, nil
	}
	sweeps, err := RunMRCaseStudies(ctx, c.Grids.MR)
	if err != nil {
		return nil, err
	}
	c.mrSweeps = sweeps
	return sweeps, nil
}

// Experiment is one registered table/figure generator.
type Experiment struct {
	// ID is the stable identifier used by -only and report headers.
	ID string
	// Title is the one-line description shown by -list.
	Title string
	// Deps names the shared computations (e.g. DepMRSweeps) this
	// experiment reads, so RunAll can resolve each once up front.
	Deps []string
	// Measured marks experiments whose output contains genuine
	// wall-clock measurements: machine-dependent, so excluded from
	// byte-for-byte reproducibility checks.
	Measured bool
	// Run produces the report. It must honor ctx cancellation and be
	// safe to call concurrently with other experiments sharing cfg.
	Run func(ctx context.Context, cfg *Config) (Report, error)
}

// Registry holds experiments in registration order.
type Registry struct {
	order []string
	byID  map[string]Experiment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]Experiment{}}
}

// Register adds an experiment; IDs must be non-empty and unique.
func (r *Registry) Register(e Experiment) error {
	if e.ID == "" {
		return fmt.Errorf("experiment: registering empty ID")
	}
	if e.Run == nil {
		return fmt.Errorf("experiment: %s has no Run function", e.ID)
	}
	if _, dup := r.byID[e.ID]; dup {
		return fmt.Errorf("experiment: duplicate ID %q", e.ID)
	}
	r.order = append(r.order, e.ID)
	r.byID[e.ID] = e
	return nil
}

// mustRegister panics on registration errors — used only for the
// built-in table, where a bad entry is a programming bug.
func (r *Registry) mustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// IDs returns all experiment IDs in registration order.
func (r *Registry) IDs() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Lookup returns the experiment registered under id.
func (r *Registry) Lookup(id string) (Experiment, bool) {
	e, ok := r.byID[id]
	return e, ok
}

// Select resolves the requested IDs to experiments in registration
// order (duplicates collapse). An empty request selects everything; an
// unknown ID is an error that lists the valid ones.
func (r *Registry) Select(ids []string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, id := range ids {
		if _, ok := r.byID[id]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(r.IDs(), " "))
		}
		want[id] = true
	}
	sel := make([]Experiment, 0, len(r.order))
	for _, id := range r.order {
		if len(want) == 0 || want[id] {
			sel = append(sel, r.byID[id])
		}
	}
	return sel, nil
}

// Progress reports one finished experiment to RunAll's callback.
type Progress struct {
	ID      string
	Points  int // series samples + table rows produced
	Elapsed time.Duration
}

// RunAll runs the selected experiments on the context's worker pool and
// returns their reports in registration order regardless of completion
// order. Shared dependencies are resolved once before the fan-out; the
// first failure cancels the rest. onProgress, if non-nil, is invoked
// serially as experiments finish.
func (r *Registry) RunAll(ctx context.Context, ids []string, cfg *Config, onProgress func(Progress)) ([]Report, error) {
	sel, err := r.Select(ids)
	if err != nil {
		return nil, err
	}
	deps := map[string]bool{}
	for _, e := range sel {
		for _, d := range e.Deps {
			deps[d] = true
		}
	}
	for _, d := range sortedKeys(deps) {
		switch d {
		case DepMRSweeps:
			if _, err := cfg.MRSweeps(ctx); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("experiment: unknown dependency %q", d)
		}
	}
	var mu sync.Mutex
	return runner.Map(ctx, len(sel), func(ctx context.Context, i int) (Report, error) {
		start := time.Now()
		rep, err := sel[i].Run(ctx, cfg)
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", sel[i].ID, err)
		}
		if onProgress != nil {
			mu.Lock()
			onProgress(Progress{ID: sel[i].ID, Points: rep.Points(), Elapsed: time.Since(start)})
			mu.Unlock()
		}
		return rep, nil
	})
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DefaultRegistry builds the full evaluation: every table and figure of
// the paper plus the beyond-the-paper studies, in the order the paper
// presents them.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	withSweeps := func(f func(ctx context.Context, sweeps []MRSweep, cfg *Config) (Report, error)) func(context.Context, *Config) (Report, error) {
		return func(ctx context.Context, cfg *Config) (Report, error) {
			sweeps, err := cfg.MRSweeps(ctx)
			if err != nil {
				return Report{}, err
			}
			return f(ctx, sweeps, cfg)
		}
	}
	r.mustRegister(Experiment{ID: "fig2", Title: "Fixed-time scaling taxonomy",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return FigureTaxonomy(ctx, core.FixedTime, cfg.Grids.Taxonomy)
		}})
	r.mustRegister(Experiment{ID: "fig3", Title: "Fixed-size scaling taxonomy",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return FigureTaxonomy(ctx, core.FixedSize, cfg.Grids.Taxonomy)
		}})
	r.mustRegister(Experiment{ID: "fig4", Title: "MapReduce speedups vs Gustafson", Deps: []string{DepMRSweeps},
		Run: withSweeps(func(ctx context.Context, sweeps []MRSweep, _ *Config) (Report, error) {
			return Figure4(ctx, sweeps)
		})})
	r.mustRegister(Experiment{ID: "fig5", Title: "Workload decomposition vs n", Deps: []string{DepMRSweeps},
		Run: withSweeps(func(ctx context.Context, sweeps []MRSweep, _ *Config) (Report, error) {
			return Figure5(ctx, sweeps)
		})})
	r.mustRegister(Experiment{ID: "fig6", Title: "IPSO fits of the case studies", Deps: []string{DepMRSweeps},
		Run: withSweeps(func(ctx context.Context, sweeps []MRSweep, cfg *Config) (Report, error) {
			return Figure6(ctx, sweeps, cfg.Grids.FitMaxN)
		})})
	r.mustRegister(Experiment{ID: "fig7", Title: "IPSO extrapolation quality", Deps: []string{DepMRSweeps},
		Run: withSweeps(func(ctx context.Context, sweeps []MRSweep, cfg *Config) (Report, error) {
			return Figure7(ctx, sweeps, cfg.Grids.FitMaxN)
		})})
	r.mustRegister(Experiment{ID: "table1", Title: "Collaborative Filtering workloads",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return TableI(ctx)
		}})
	r.mustRegister(Experiment{ID: "fig8", Title: "CF speedup vs Amdahl",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return Figure8(ctx, cfg.Grids.Fig8)
		}})
	r.mustRegister(Experiment{ID: "fig9", Title: "Spark fixed-time dimension",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return Figure9(ctx, cfg, cfg.Grids.LoadLevels, cfg.Grids.SparkExecs)
		}})
	r.mustRegister(Experiment{ID: "fig10", Title: "Spark fixed-size dimension",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return Figure10(ctx, cfg, cfg.Grids.FixedSizeTasks, cfg.Grids.FixedSizeExecs)
		}})
	r.mustRegister(Experiment{ID: "diag", Title: "Scaling diagnoses of the case studies", Deps: []string{DepMRSweeps},
		Run: withSweeps(func(ctx context.Context, sweeps []MRSweep, _ *Config) (Report, error) {
			return Diagnostics(ctx, sweeps)
		})})
	r.mustRegister(Experiment{ID: "provisioning", Title: "Speedup-per-dollar operating points", Deps: []string{DepMRSweeps},
		Run: withSweeps(func(ctx context.Context, sweeps []MRSweep, cfg *Config) (Report, error) {
			return Provisioning(ctx, sweeps, cfg.Grids.PricePerNodeHour, cfg.Grids.ProvisionMaxN)
		})})
	r.mustRegister(Experiment{ID: "ablation-broadcast", Title: "Serial vs parallel broadcast",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return AblationBroadcast(ctx, cfg.Grids.CF)
		}})
	r.mustRegister(Experiment{ID: "ablation-memory", Title: "Reducer memory vs IN(n) step",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return AblationReducerMemory(ctx, cfg.Grids.Memory, cfg.Grids.Memories)
		}})
	r.mustRegister(Experiment{ID: "ablation-statistic", Title: "Deterministic vs straggler task times",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return AblationStatistic(ctx, cfg.Grids.Jitter, cfg.Seed)
		}})
	r.mustRegister(Experiment{ID: "futurework", Title: "Online (δ, γ) estimation pipeline",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return FutureWork(ctx, cfg.Grids.PricePerNodeHour, cfg.Grids.FutureWorkValidateN)
		}})
	r.mustRegister(Experiment{ID: "surface", Title: "Spark speedup surfaces S(N, m)",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return SparkSurface(ctx, cfg, cfg.Grids.SurfaceLoads, cfg.Grids.SparkExecs)
		}})
	r.mustRegister(Experiment{ID: "fixedsize-mr", Title: "Fixed-size MapReduce dimension",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			return FixedSizeMR(ctx, cfg.Grids.FixedSizeMRBytes, cfg.Grids.FixedSizeMRGrid)
		}})
	r.mustRegister(Experiment{ID: "ablation-contention", Title: "Contention-induced q(n)",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			g := cfg.Grids
			return AblationContention(ctx, g.ContentionRates, g.ContentionRequestsPerTask, g.ContentionTaskSeconds, g.ContentionGrid)
		}})
	r.mustRegister(Experiment{ID: "realnet", Title: "Real TCP MapReduce wall-clock phases", Measured: true,
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			g := cfg.Grids
			return RealNet(ctx, g.RealNetWorkers, g.RealNetLines, g.RealNetShards)
		}})
	r.mustRegister(Experiment{ID: "selfdiag", Title: "IPSO self-diagnosis of the harness runner", Measured: true,
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			g := cfg.Grids
			return SelfDiag(ctx, cfg.Seed, g.SelfDiagMaxWidth, g.SelfDiagRounds)
		}})
	r.mustRegister(Experiment{ID: "straggler", Title: "Straggler tails and speculative recovery (Eq. 7/8)",
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			g := cfg.Grids
			return Straggler(ctx, g.StragglerNs, g.StragglerReps, cfg.Seed)
		}})
	r.mustRegister(Experiment{ID: "livefit", Title: "Live-telemetry-fed model fitting from the traced cluster", Measured: true,
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			g := cfg.Grids
			return LiveFit(ctx, g.LiveFitWorkers, g.LiveFitLines, g.LiveFitShards)
		}})
	r.mustRegister(Experiment{ID: "distreduce", Title: "Distributed worker-side reduce: ε(n), one map vs sections", Measured: true,
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			g := cfg.Grids
			return DistReduce(ctx, g.DistReduceWorkers, g.DistReduceLines, g.DistReduceShards, g.DistReduceR)
		}})
	r.mustRegister(Experiment{ID: "ooshuffle", Title: "Out-of-core shuffle: spill budget sweep and ε(n)/q(n) refits", Measured: true,
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			g := cfg.Grids
			return OOShuffle(ctx, g.OOShuffleWorkers, g.OOShuffleLines, g.OOShuffleShards, g.OOShuffleR, g.OOShuffleBudgets)
		}})
	r.mustRegister(Experiment{ID: "pipeshuffle", Title: "Pipelined shuffle: q(n) with early reduce dispatch vs the map barrier", Measured: true,
		Run: func(ctx context.Context, cfg *Config) (Report, error) {
			g := cfg.Grids
			return PipeShuffle(ctx, g.PipeShuffleWorkers, g.PipeShuffleLines, g.PipeShuffleShards, g.PipeShuffleR)
		}})
	r.mustRegister(Experiment{ID: "modelzoo", Title: "Scaling-model zoo: competing laws fitted and selected", Deps: []string{DepMRSweeps},
		Run: withSweeps(func(ctx context.Context, sweeps []MRSweep, cfg *Config) (Report, error) {
			return ModelZooStudy(ctx, sweeps, cfg)
		})})
	return r
}
