package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"ipso/internal/netmr"
	"ipso/internal/obs"
)

// runConfig is one invocation: one workload, one seed, one pass kind.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds float64 // how long the measured loop(s) run
	traced  bool    // per-layer run: an untraced and a traced pass, half the time each
	scale   float64
	dir     string // scratch directory for spill files and the host write test
}

// runResult is what one invocation measured. metrics holds every value by
// ledger name; notes are the per-metric remarks of the human-readable
// listing (sample counts, host references).
type runResult struct {
	attempted int
	failed    int
	metrics   map[string]float64
	notes     map[string]string
	errs      []string // first few Run errors and mismatches, for the operator
}

// setupsPerRun is how many times an end-to-end run brings the cluster up
// and warms it; setup_s is their median, so one cold start does not set it.
const setupsPerRun = 3

// cluster is one standing in-process cluster.
type cluster struct {
	master   *netmr.Master
	workers  []*netmr.Worker
	spillDir string
}

// startCluster brings up 1 master + clusterWorkers workers. It sets only
// real job parameters; every mode switch stays at the library default.
func startCluster(spec workloadSpec, traced bool, metrics *obs.Registry, dir string) (*cluster, error) {
	registry, err := netmr.NewRegistry(spec.job)
	if err != nil {
		return nil, err
	}
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{Reducers: reducers, Trace: traced, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	c := &cluster{master: master}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		c.stop()
		return nil, err
	}
	var wcfg netmr.WorkerConfig
	if spec.spillBudget > 0 {
		c.spillDir, err = os.MkdirTemp(dir, "spill-")
		if err != nil {
			c.stop()
			return nil, err
		}
		wcfg = netmr.WorkerConfig{SpillBudget: spec.spillBudget, SpillDir: c.spillDir}
	}
	for i := 0; i < clusterWorkers; i++ {
		wreg, err := netmr.NewRegistry(spec.job)
		if err != nil {
			c.stop()
			return nil, err
		}
		w, err := netmr.NewWorker(wreg, netmr.WithWorkerConfig(wcfg))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
		if err := w.Start(addr); err != nil {
			c.stop()
			return nil, err
		}
	}
	if err := master.WaitForWorkers(clusterWorkers, 30*time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// stop tears the cluster down and reports how many spill files outlived
// it, then removes the spill directory.
func (c *cluster) stop() (filesLeft int) {
	c.master.Close()
	for _, w := range c.workers {
		w.Stop()
	}
	if c.spillDir == "" {
		return 0
	}
	_ = filepath.WalkDir(c.spillDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			filesLeft++
		}
		return nil
	})
	_ = os.RemoveAll(c.spillDir)
	return filesLeft
}

// peakResident is the largest intermediate-store high-water mark of any
// worker since the cluster came up.
func (c *cluster) peakResident() int64 {
	var peak int64
	for _, w := range c.workers {
		if p, _, _ := w.StoreStats(); p > peak {
			peak = p
		}
	}
	return peak
}

// rep is one timed Master.Run.
type rep struct {
	wall  float64
	cpu   float64
	stats netmr.Stats

	// Traced passes only.
	bd         netmr.PhaseBreakdown
	breakdownS float64
	spans      int
	open       int
}

// harness carries what every pass of one invocation shares.
type harness struct {
	cfg     runConfig
	rec     *recorder
	records []string
	oracle  map[string]float64
	res     *runResult
	yard    *yardstick
	err     error // the first yardstick failure: it ends the run

	sinceTick float64 // wall seconds of the jobs run since the last yardstick reading
}

// yardShare is how long a yardstick reading goes on, as a share of the
// wall time of the jobs run since the previous reading. A run's jobs and
// its yardstick readings are both medians of noisy samples and the
// reported times are their quotient, so starving either makes it noisy.
const yardShare = 0.25

// tick takes one yardstick reading and appends it to into: the yardstick
// is run until yardShare of the time the jobs since the last reading took
// has passed (once at least), and the reading is the mean time of a run.
// false means the yardstick failed and the benchmark run should stop.
func (h *harness) tick(into *[]float64) bool {
	end := h.rec.begin("yardstick")
	defer end()
	atLeast := yardShare * h.sinceTick
	h.sinceTick = 0
	total, n := 0.0, 0
	for n == 0 || total < atLeast {
		s, err := h.yard.run()
		if err != nil {
			if h.err == nil {
				h.err = err
			}
			return false
		}
		total += s
		n++
	}
	*into = append(*into, total/float64(n))
	return true
}

// slowdown is how much slower than nominal the host ran the yardstick
// readings: what a timing taken beside them is divided by.
func (h *harness) slowdown(yard []float64) float64 {
	return median(yard) / h.cfg.spec.yardNominal
}

// rusage is the process's resource usage; zero if the call fails, which
// on Linux it does not for RUSAGE_SELF.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) * 1024 / 1e6 }

// runJob times one Master.Run, then verifies its output against the
// oracle outside the timed window. ok is false when the run errored or
// the output mismatched; either counts into failed.
func (h *harness) runJob(c *cluster, traced bool) (r rep, ok bool) {
	h.res.attempted++
	endRun := h.rec.begin("run")
	cpu0 := cpuSeconds()
	out, stats, err := c.master.Run(context.Background(), h.cfg.spec.job.Name, h.records, h.cfg.spec.shards)
	r.cpu = cpuSeconds() - cpu0
	r.wall = endRun()
	h.sinceTick += r.wall
	r.stats = stats
	if err == nil {
		endVerify := h.rec.begin("verify")
		err = verify(out, h.oracle)
		endVerify()
	}
	if err != nil {
		h.res.failed++
		if len(h.res.errs) < 5 {
			h.res.errs = append(h.res.errs, err.Error())
		}
		return r, false
	}
	if traced {
		trc := c.master.LastTrace()
		if trc == nil {
			h.res.failed++
			h.res.errs = append(h.res.errs, "traced run produced no job trace")
			return r, false
		}
		t0 := time.Now()
		r.bd = trc.Breakdown(stats)
		r.breakdownS = time.Since(t0).Seconds()
		r.spans = len(trc.Spans())
		r.open = trc.OpenLaunches()
	}
	return r, true
}

// pass is one standing cluster and what was measured on it. In a traced
// run an untraced and a traced pass stand side by side and take turns
// block by block, so host drift and process warm-up fall on both alike.
type pass struct {
	c      *cluster
	traced bool

	setupS, clusterUpS, teardownS float64
	blocks                        [][]rep
	yard                          []float64 // yardstick readings taken between this pass's jobs
	jobs                          int
	peakResident                  int64
	filesLeft                     int

	// Go runtime deltas summed over this pass's blocks.
	mallocs, allocBytes, gcPauseNs uint64
	gcCycles                       int // the harness's own forced collections taken out
}

// setup is what setup_s times: cluster-up plus the warm-up jobs.
func (h *harness) setup(traced bool, metrics *obs.Registry) (*pass, error) {
	p := &pass{traced: traced}
	endSetup := h.rec.begin("setup")
	endUp := h.rec.begin("cluster-up")
	c, err := startCluster(h.cfg.spec, traced, metrics, h.cfg.dir)
	p.clusterUpS = endUp()
	if err != nil {
		endSetup()
		return nil, fmt.Errorf("cluster-up: %w", err)
	}
	p.c = c
	endWarm := h.rec.begin("warm-up")
	for i := 0; i < h.cfg.spec.warmJobs; i++ {
		h.runJob(c, traced)
	}
	endWarm()
	p.setupS = endSetup()
	return p, nil
}

func (h *harness) teardown(p *pass) {
	end := h.rec.begin("teardown")
	p.peakResident = p.c.peakResident()
	p.filesLeft = p.c.stop()
	p.teardownS = end()
}

// maxFailures stops a run whose cluster is evidently broken instead of
// grinding through the time budget one error at a time.
const maxFailures = 10

// measure runs blocks of back-to-back jobs, one pass after the other in
// turn, until seconds have passed and every pass has atLeast blocks. The
// yardstick is read before every block and once after the last.
func (h *harness) measure(passes []*pass, seconds float64, atLeast int) {
	end := h.rec.begin("measure")
	defer end()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(passes[0].blocks) < atLeast || time.Now().Before(deadline) {
		for _, p := range passes {
			if !h.runBlock(p) {
				return
			}
		}
	}
	for _, p := range passes {
		h.tick(&p.yard)
	}
}

// yardGap is how many wall seconds of jobs may pass inside a block before
// the yardstick is read again: a smalljobs block is a second or two of
// jobs a few milliseconds long, and the host changes within it.
const yardGap = 0.3

// runBlock runs one block on p; false means the run should stop.
func (h *harness) runBlock(p *pass) bool {
	spec := h.cfg.spec
	var m0, m1 runtime.MemStats
	forced := 0
	block := make([]rep, 0, spec.blockJobs)
	for j := 0; j < spec.blockJobs; j++ {
		if spec.gcBetween {
			runtime.GC()
			forced++
		}
		// The yardstick is read on the heap the job will start on, just
		// collected where the workload collects, so that no collection of
		// the previous job's garbage lands in the reading. A traced run
		// reads it between blocks only and starts the runtime counts after
		// it, which keeps its allocations out of the proc.* numbers.
		if j == 0 || (!h.cfg.traced && h.sinceTick >= yardGap) {
			if !h.tick(&p.yard) {
				return false
			}
		}
		if j == 0 {
			runtime.ReadMemStats(&m0)
			forced = 0
		}
		r, ok := h.runJob(p.c, p.traced)
		if ok {
			block = append(block, r)
		} else if h.res.failed >= maxFailures {
			return false
		}
	}
	runtime.ReadMemStats(&m1)
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	p.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	p.gcCycles += int(m1.NumGC-m0.NumGC) - forced
	p.jobs += len(block)
	p.blocks = append(p.blocks, block)
	return true
}

// scrape exposes and parses the registries, returning every sample keyed
// as name{label=value,...}, and how long that took.
func scrape(regs ...*obs.Registry) (map[string]float64, float64, error) {
	t0 := time.Now()
	out := map[string]float64{}
	for _, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return nil, 0, fmt.Errorf("scrape: %w", err)
		}
		families, err := obs.ParsePrometheus(&buf)
		if err != nil {
			return nil, 0, fmt.Errorf("scrape: %w", err)
		}
		for _, f := range families {
			for _, s := range f.Samples {
				labels := make([]string, len(s.Labels))
				for i, kv := range s.Labels {
					labels[i] = kv[0] + "=" + kv[1]
				}
				out[s.Name+"{"+strings.Join(labels, ",")+"}"] = s.Value
			}
		}
	}
	return out, time.Since(t0).Seconds(), nil
}

// walls summarises the blocks: per-block median, p95 and job rate.
func (p *pass) walls() (med, p95, rate []float64, cpu float64) {
	for _, block := range p.blocks {
		if len(block) == 0 {
			continue
		}
		ws := make([]float64, len(block))
		total := 0.0
		for i, r := range block {
			ws[i] = r.wall
			total += r.wall
			cpu += r.cpu
		}
		med = append(med, median(ws))
		p95 = append(p95, percentile(ws, 0.95))
		rate = append(rate, float64(len(ws))/total)
	}
	return med, p95, rate, cpu
}

// over is the median over every job of the pass of one per-job value.
func (p *pass) over(value func(r *rep) float64) float64 {
	var xs []float64
	for _, block := range p.blocks {
		for i := range block {
			xs = append(xs, value(&block[i]))
		}
	}
	return median(xs)
}

// worst is the largest per-job value of the pass: for the must-be-zero
// checks, where a median would hide the one job that broke the rule.
func (p *pass) worst(value func(r *rep) float64) float64 {
	w := 0.0
	for _, block := range p.blocks {
		for i := range block {
			w = math.Max(w, value(&block[i]))
		}
	}
	return w
}

// run executes one invocation end to end.
func run(cfg runConfig) (*runResult, *recorder, error) {
	res := &runResult{metrics: map[string]float64{}, notes: map[string]string{}}
	rec := newRecorder(fmt.Sprintf("%s-seed%d-trace%t", cfg.spec.name, cfg.seed, cfg.traced))
	h := &harness{cfg: cfg, rec: rec, res: res}
	endRoot := rec.begin("bench")
	defer endRoot()

	endGen := rec.begin("generate")
	records, err := cfg.spec.generate(cfg.spec.records, cfg.seed)
	generateS := endGen()
	if err != nil {
		return nil, rec, fmt.Errorf("generate: %w", err)
	}
	h.records = records
	bytesIn := float64(inputBytes(records))
	h.yard, err = newYardstick(cfg.spec.job, records[:min(yardRecords, len(records))])
	if err != nil {
		return nil, rec, err
	}
	defer h.yard.close()

	endRef := rec.begin("reference")
	h.oracle, err = reference(cfg.spec.job, records)
	referenceS := endRef()
	if err != nil {
		return nil, rec, fmt.Errorf("reference: %w", err)
	}
	var host hostRefs
	if cfg.traced {
		endHost := rec.begin("host")
		host, err = measureHost(cfg.dir, cfg.scale)
		endHost()
		if err != nil {
			return nil, rec, err
		}
	}
	// Hand the garbage of generating, of the oracle and of the host
	// buffers back before the first cluster exists: peak_rss_mb is then
	// the jobs' high-water mark and not the harness's, and the first pass
	// does not run beside the scavenger returning it.
	debug.FreeOSMemory()

	if !cfg.traced {
		if err = h.endToEnd(bytesIn); err == nil {
			err = h.err
		}
		return res, rec, err
	}
	// One private registry for both masters (families are get-or-create,
	// so they share counters); the workers count into obs.Default().
	goroutines0 := runtime.NumGoroutine()
	metrics := obs.NewRegistry()
	plain, err := h.setup(false, metrics)
	if err != nil {
		return nil, rec, err
	}
	traced, err := h.setup(true, metrics)
	if err != nil {
		h.teardown(plain)
		return nil, rec, err
	}
	before, _, err := scrape(metrics, obs.Default())
	if err != nil {
		h.teardown(plain)
		h.teardown(traced)
		return nil, rec, err
	}
	h.measure([]*pass{plain, traced}, cfg.seconds, 3)
	after, scrapeS, err := scrape(metrics, obs.Default())
	h.teardown(plain)
	h.teardown(traced)
	if err == nil {
		err = h.err
	}
	if err != nil {
		return nil, rec, err
	}
	// Scraped counters cover both passes' jobs: the registries are shared.
	perJob := func(key string) float64 { return ratio(after[key]-before[key], float64(plain.jobs+traced.jobs)) }
	h.layers(plain, traced, layerInputs{
		host: host, generateS: generateS, referenceS: referenceS, bytesIn: bytesIn,
		scrapeS: scrapeS, perJob: perJob, leaked: leakedGoroutines(goroutines0),
	})
	return res, rec, nil
}

// leakedGoroutines is the goroutine count above the pre-cluster baseline
// once teardown has settled (connection handlers exit asynchronously
// after their sockets close; one second is far more than they need).
func leakedGoroutines(baseline int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine() - baseline; n > 0 {
		return n
	}
	return 0
}

// endToEnd is the untraced run: setupsPerRun set-ups, the last of which
// stays up to be measured for cfg.seconds. Every time it reports is in
// nominal-host seconds: divided by the slowdown the yardstick readings
// taken beside it show (see yardstick.go).
func (h *harness) endToEnd(bytesIn float64) error {
	var setups, setupYard []float64
	var p *pass
	for i := 0; i < setupsPerRun; i++ {
		if p != nil {
			h.teardown(p)
		}
		if h.cfg.spec.gcBetween {
			runtime.GC()
		}
		if !h.tick(&setupYard) {
			return h.err
		}
		var err error
		if p, err = h.setup(false, obs.NewRegistry()); err != nil {
			return err
		}
		setups = append(setups, p.setupS)
	}
	h.tick(&setupYard)
	h.measure([]*pass{p}, h.cfg.seconds, minBlocks)
	h.teardown(p)
	if h.err != nil {
		return h.err
	}

	m, n := h.res.metrics, h.res.notes
	med, p95, rate, cpu := p.walls()
	setupSlow, slow := h.slowdown(setupYard), h.slowdown(p.yard)
	jobS := median(med) / slow
	m["setup_s"] = median(setups) / setupSlow
	n["setup_s"] = fmt.Sprintf("median of %d set-ups, each cluster-up + %d warm-up job(s): %.6g s on the clock, host slowdown %.3f over %d yardstick(s)",
		len(setups), h.cfg.spec.warmJobs, median(setups), setupSlow, len(setupYard))
	m["job_s"] = jobS
	n["job_s"] = fmt.Sprintf("median over %d block(s) of the block median, %d job(s) sampled: %.6g s on the clock, host slowdown %.3f (yardstick median %.6g s over %d, nominal %g s)",
		len(med), p.jobs, median(med), slow, median(p.yard), len(p.yard), h.cfg.spec.yardNominal)
	m["job_p95_s"] = median(p95) / slow
	if h.cfg.spec.blockJobs > 1 {
		n["job_p95_s"] = fmt.Sprintf("median over %d block(s) of the block p95; %d sample(s) beyond it per block", len(p95), h.cfg.spec.blockJobs/20)
	} else {
		n["job_p95_s"] = "one job per block: equals job_s (too few samples for a tail)"
	}
	m["records_per_s"] = ratio(float64(len(h.records)), jobS)
	m["mb_per_s"] = ratio(bytesIn/1e6, jobS)
	m["jobs_per_s"] = median(rate) * slow
	m["cpu_s_per_job"] = ratio(cpu, float64(p.jobs)) / slow
	m["peak_rss_mb"] = peakRSSMB()
	n["peak_rss_mb"] = "whole process: input, oracle and result maps included"
	return nil
}

// layerInputs is what the per-layer metrics need besides the two passes.
type layerInputs struct {
	host                           hostRefs
	generateS, referenceS, bytesIn float64
	scrapeS                        float64
	perJob                         func(key string) float64 // scraped counter delta per job
	leaked                         int
}

// layers fills the per-layer metrics from an untraced and a traced pass.
func (h *harness) layers(plain, traced *pass, in layerInputs) {
	m, n := h.res.metrics, h.res.notes
	host, bytesIn := in.host, in.bytesIn
	recs := float64(len(h.records))
	plainMed, _, _, _ := plain.walls()
	tracedMed, _, _, _ := traced.walls()
	jobS := median(plainMed)
	bd := func(f func(b *netmr.PhaseBreakdown) float64) float64 {
		return traced.over(func(r *rep) float64 { return f(&r.bd) })
	}
	st := func(f func(s *netmr.Stats) float64) float64 {
		return traced.over(func(r *rep) float64 { return f(&r.stats) })
	}

	m["workload.generate_s"] = in.generateS
	m["workload.input_records"] = recs
	m["workload.input_bytes"] = bytesIn

	m["mapreduce.reference_s"] = in.referenceS
	m["mapreduce.speedup_vs_reference"] = ratio(in.referenceS, jobS)
	n["mapreduce.speedup_vs_reference"] = fmt.Sprintf("against untraced job_s %.6g s", jobS)

	m["netmr.worker.map_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Wp })
	m["netmr.worker.max_task_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.MaxTask })
	m["netmr.worker.map_mbps"] = ratio(bytesIn/1e6, m["netmr.worker.map_s"])
	m["netmr.worker.partition_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Partition })

	m["netmr.codec.decode_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Decode })
	m["netmr.codec.encode_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Encode })
	m["netmr.codec.decode_mbps"] = ratio(bytesIn/1e6, m["netmr.codec.decode_s"])

	m["netmr.master.cluster_up_s"] = traced.clusterUpS
	m["netmr.master.split_wall_s"] = st(func(s *netmr.Stats) float64 { return s.SplitWall.Seconds() })
	m["netmr.master.reduce_wall_s"] = st(func(s *netmr.Stats) float64 { return s.ReduceWall.Seconds() })
	m["netmr.master.merge_tail_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Ws })
	m["netmr.master.rpc_gap_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.RPCGap })
	m["netmr.master.wasted_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Wasted })
	m["netmr.master.reassignments"] = in.perJob("netmr_retries_total{}")
	m["netmr.master.teardown_s"] = traced.teardownS

	m["netmr.shuffle.fetch_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Fetch })
	m["netmr.shuffle.bytes"] = st(func(s *netmr.Stats) float64 { return float64(s.ShuffleBytes) })
	m["netmr.shuffle.fetch_mbps"] = ratio(m["netmr.shuffle.bytes"]/1e6, m["netmr.shuffle.fetch_s"])
	m["netmr.shuffle.fetches"] = in.perJob("netmr_worker_fetches_total{result=ok}")
	m["netmr.shuffle.replicate_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Replicate })
	m["netmr.shuffle.await_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Await })
	m["netmr.shuffle.hidden_fetch_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.HiddenFetch })
	m["netmr.shuffle.failovers"] = st(func(s *netmr.Stats) float64 { return float64(s.Failovers) })

	hits := in.perJob("netmr_worker_shuffle_pool_total{kind=hit}")
	misses := in.perJob("netmr_worker_shuffle_pool_total{kind=miss}")
	m["netmr.shufflepool.hit_ratio"] = ratio(hits, hits+misses)
	m["netmr.shufflepool.evictions"] = in.perJob("netmr_worker_shuffle_pool_total{kind=evict}")

	m["netmr.lz.bytes_saved"] = st(func(s *netmr.Stats) float64 { return float64(s.CompressedBytes) })

	m["netmr.spill.s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Spill })
	m["netmr.spill.runs"] = st(func(s *netmr.Stats) float64 { return float64(s.SpillRuns) })
	m["netmr.spill.bytes"] = st(func(s *netmr.Stats) float64 { return float64(s.SpilledBytes) })
	m["netmr.spill.write_mbps"] = ratio(m["netmr.spill.bytes"]/1e6, m["netmr.spill.s"])
	m["netmr.spill.peak_resident_bytes"] = float64(max(plain.peakResident, traced.peakResident))
	if b := h.cfg.spec.spillBudget; b > 0 {
		n["netmr.spill.peak_resident_bytes"] = fmt.Sprintf("budget %d bytes per worker", b)
	}
	m["netmr.spill.errors"] = in.perJob("netmr_worker_spill_errors_total{}")
	m["netmr.spill.files_left"] = float64(plain.filesLeft + traced.filesLeft)

	m["netmr.reduce.fold_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Reduce })
	m["netmr.reduce.max_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.MaxReduce })

	m["netmr.trace.overhead_ratio"] = ratio(median(tracedMed), jobS) - 1
	n["netmr.trace.overhead_ratio"] = fmt.Sprintf("traced job_s %.6g s over %d job(s) / untraced %.6g s over %d - 1", median(tracedMed), traced.jobs, jobS, plain.jobs)
	m["netmr.trace.identity_residual_s"] = traced.worst(func(r *rep) float64 {
		return math.Abs(r.bd.MaxTask + r.bd.MaxReduce + r.bd.Ws + r.bd.Wo - r.bd.TotalWall)
	})
	m["netmr.trace.open_launches"] = traced.worst(func(r *rep) float64 { return float64(r.open) })
	m["netmr.trace.spans"] = traced.over(func(r *rep) float64 { return float64(r.spans) })
	m["netmr.trace.breakdown_s"] = traced.over(func(r *rep) float64 { return r.breakdownS })

	m["core.wp_s"] = m["netmr.worker.map_s"]
	m["core.ws_s"] = m["netmr.master.merge_tail_s"]
	m["core.wo_s"] = bd(func(b *netmr.PhaseBreakdown) float64 { return b.Wo })
	m["core.q"] = bd(func(b *netmr.PhaseBreakdown) float64 { return ratio(float64(b.Workers)*b.Wo, b.Wp) })
	m["core.eta"] = bd(func(b *netmr.PhaseBreakdown) float64 { return ratio(b.Wp+b.Reduce, b.Wp+b.Reduce+b.Ws) })

	m["obs.scrape_s"] = in.scrapeS

	// Allocation and GC cost of the untraced pass: the one whose wall and
	// CPU the end-to-end metrics report. Forced collections are out of the
	// cycle count; their pauses are not separable and stay in gc_pause_s.
	perPlainJob := func(v float64) float64 { return ratio(v, float64(plain.jobs)) }
	m["proc.allocs_per_record"] = perPlainJob(float64(plain.mallocs)) / recs
	m["proc.alloc_bytes_per_record"] = perPlainJob(float64(plain.allocBytes)) / recs
	m["proc.gc_cycles"] = perPlainJob(float64(plain.gcCycles))
	m["proc.gc_pause_s"] = perPlainJob(float64(plain.gcPauseNs) / 1e9)
	m["proc.goroutines_leaked"] = float64(in.leaked)

	m["host.memcpy_mbps"] = host.memcpyMBps
	m["host.loopback_mbps"] = host.loopbackMBps
	m["host.seqwrite_mbps"] = host.seqwriteMBps
	n["host.seqwrite_mbps"] = "no fsync: page-cache speed"
	m["host.nproc"] = float64(host.nproc)
	yard := append(append([]float64(nil), plain.yard...), traced.yard...)
	m["host.yardstick_s"] = median(yard)
	m["host.slowdown"] = h.slowdown(yard)
	n["host.slowdown"] = fmt.Sprintf("%d yardstick(s) against nominal %g s; the per-layer times are on the clock, not divided by it", len(yard), h.cfg.spec.yardNominal)
	for name, ref := range hostReference {
		n[name] = fmt.Sprintf("%s %.6g MB/s: %.2f%% of it", ref, m[ref], 100*ratio(m[name], m[ref]))
	}
}
