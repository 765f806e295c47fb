// Command netmr runs the real TCP MapReduce runtime as separate
// processes: start one master and any number of workers (on the same or
// different machines), then submit a built-in job.
//
// Usage:
//
//	netmr -role master -addr 127.0.0.1:7077 -job wordcount -lines 100000 -shards 16 -workers 4
//	netmr -role worker -addr 127.0.0.1:7077        # repeat per worker
//
// The master waits for the requested number of workers, generates the
// dictionary-text working set, runs the job, and prints the result
// summary with the split/reduce/merge wall-clock decomposition and a
// per-worker breakdown (shards run, reassignments, cumulative busy time).
//
// With -metricsaddr the master also serves Prometheus /metrics and a
// /healthz JSON endpoint for the duration of the run; -heartbeat enables
// periodic liveness pings that evict dead idle workers. /healthz answers
// 503 with "status": "degraded" while workers stand evicted or the last
// run finished degraded.
//
// Tracing (master): -trace prints the job's span timeline and Wp/Ws/Wo
// phase accounting after the run; -tracefile dumps the spans as JSON
// Lines (and implies the traced runtime). `netmr trace report <file>`
// renders a dump offline. A traced master stamps the trace ID on its
// task frames, and workers report their sub-phases for every frame that
// carries one.
//
// Master and workers must be the same build: every connection opens with
// a protocol version byte, and a worker of another version exits with
// an error naming both.
//
// Reduce knob (master): -reducers R sets how many reduce tasks combine
// the job's output (0 = GOMAXPROCS). Workers keep their map output
// hash-split R ways, fetch each other's partitions and fold the R
// partitions themselves, leaving the master only the union of R
// disjoint key spaces.
//
// Out-of-core shuffle knobs (worker): -spill-budget bounds the bytes of
// intermediate state a worker keeps resident, spilling sorted runs to
// -spill-dir (default: the OS temp dir) beyond it — 0 keeps everything
// in memory. The time bounds are constants, not flags: 30 s per
// exchange, 5 s per ping or release, 5 min per job.
//
// Pipelined shuffle: the master dispatches reduce tasks as soon as a map
// output is stored and no map shard waits for a worker, and streams the
// locations of later map outputs to the running reducers, so their
// fetches hide under the map tail. A reduce task fetches from up to 4
// peers at a time over pooled connections; there is no flag.
//
// Resilience knobs (master): -maxattempts bounds the retry budget per
// shard lineage, -retrybase sets the first retry's backoff (doubled per
// attempt up to 2 s, with ±20 % deterministic jitter), and -speculate
// enables straggler cloning on the given check interval. If the job
// cannot finish (for example every worker died), the master still prints
// the partial statistics it gathered — including the per-worker
// breakdown — before exiting nonzero, so a degraded run is diagnosable
// from its output.
//
// Fault injection (both roles): -chaos-seed plus -chaos-latency,
// -chaos-task-latency (distributions like fixed:5ms, exp:5ms,
// pareto:10ms,1.5,2s, lognormal:8ms,1.2,1s), -chaos-drop, -chaos-corrupt,
// -chaos-partition/-chaos-partition-dur, -chaos-crash, and -chaos-grace
// build a seeded, byte-reproducible chaos.Injector: on a worker it
// perturbs the worker's connection and task execution; on the master it
// perturbs every admitted connection.
//
// Built-in jobs: wordcount (occurrences per word), wordlen (summed word
// lengths per first letter).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"ipso/internal/chaos"
	"ipso/internal/netmr"
	"ipso/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netmr:", err)
		os.Exit(1)
	}
}

func builtinJobs() []netmr.Job {
	return []netmr.Job{
		{
			Name: "wordcount",
			Map: func(record string, emit func(string, float64)) {
				for _, w := range strings.Fields(record) {
					emit(w, 1)
				}
			},
			Reduce: sum,
		},
		{
			Name: "wordlen",
			Map: func(record string, emit func(string, float64)) {
				for _, w := range strings.Fields(record) {
					emit(w[:1], float64(len(w)))
				}
			},
			Reduce: sum,
		},
	}
}

func sum(_ string, values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], out)
	}
	fs := flag.NewFlagSet("netmr", flag.ContinueOnError)
	role := fs.String("role", "", "master or worker")
	addr := fs.String("addr", "127.0.0.1:7077", "master address")
	job := fs.String("job", "wordcount", "built-in job name")
	lines := fs.Int("lines", 100000, "master: generated input lines")
	shards := fs.Int("shards", 16, "master: split-phase tasks")
	workers := fs.Int("workers", 1, "master: workers to wait for")
	seed := fs.Int64("seed", 42, "master: input generator seed")
	metricsAddr := fs.String("metricsaddr", "", "master: serve /metrics and /healthz on this address (e.g. 127.0.0.1:0)")
	heartbeat := fs.Duration("heartbeat", 0, "master: idle-worker liveness ping interval (0 = disabled)")
	trace := fs.Bool("trace", false, "master: distributed tracing — print the job's span timeline and phase accounting after the run")
	traceFile := fs.String("tracefile", "", "master: distributed tracing — dump the job's spans as JSON Lines to this file (implies -trace'd runtime)")

	maxAttempts := fs.Int("maxattempts", 0, "master: retry budget per shard lineage (0 = default 3)")
	retryBase := fs.Duration("retrybase", 0, "master: initial retry backoff (0 = default 20ms)")
	speculate := fs.Duration("speculate", 0, "master: straggler-check interval enabling speculative clones (0 = disabled)")
	reducers := fs.Int("reducers", 0, "master: reduce tasks R run on workers (0 = GOMAXPROCS)")
	spillBudget := fs.Int64("spill-budget", 0, "worker: resident bytes of intermediate state before spilling to disk (0 = never spill)")
	spillDir := fs.String("spill-dir", "", "worker: scratch root for spill files (empty = OS temp dir)")

	chaosSeed := fs.Int64("chaos-seed", 0, "fault injection seed (faults are byte-reproducible per seed)")
	chaosLatency := fs.String("chaos-latency", "", "injected wire latency distribution (e.g. fixed:5ms, pareto:10ms,1.5,2s)")
	chaosTaskLatency := fs.String("chaos-task-latency", "", "worker: injected per-task latency distribution")
	chaosDrop := fs.Float64("chaos-drop", 0, "probability a write kills the connection")
	chaosCorrupt := fs.Float64("chaos-corrupt", 0, "probability a write has one payload bit flipped")
	chaosPartition := fs.Float64("chaos-partition", 0, "probability a write opens a partition window")
	chaosPartitionDur := fs.Duration("chaos-partition-dur", 0, "partition window length (default 250ms)")
	chaosCrash := fs.Float64("chaos-crash", 0, "worker: probability a task attempt crashes the worker")
	chaosGrace := fs.Int("chaos-grace", 1, "connection operations exempt from faults (covers the handshake)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	injector, err := buildInjector(chaosConfigArgs{
		seed: *chaosSeed, latency: *chaosLatency, taskLatency: *chaosTaskLatency,
		drop: *chaosDrop, corrupt: *chaosCorrupt,
		partition: *chaosPartition, partitionDur: *chaosPartitionDur,
		crash: *chaosCrash, grace: *chaosGrace,
	})
	if err != nil {
		return err
	}
	switch *role {
	case "master":
		return runMaster(out, masterOptions{
			addr: *addr, job: *job, lines: *lines, shards: *shards,
			workers: *workers, seed: *seed,
			metricsAddr: *metricsAddr, heartbeat: *heartbeat,
			trace: *trace || *traceFile != "", traceFile: *traceFile,
			maxAttempts: *maxAttempts, retryBase: *retryBase,
			speculate: *speculate, reducers: *reducers,
			chaos: injector,
		})
	case "worker":
		return runWorker(out, *addr, injector, netmr.WorkerConfig{
			SpillBudget: *spillBudget, SpillDir: *spillDir,
		})
	default:
		return errors.New("need -role master or -role worker")
	}
}

// chaosConfigArgs carries the parsed -chaos-* flags.
type chaosConfigArgs struct {
	seed                     int64
	latency, taskLatency     string
	drop, corrupt, partition float64
	partitionDur             time.Duration
	crash                    float64
	grace                    int
}

// buildInjector turns the -chaos-* flags into an injector, or nil when
// every fault knob is at rest (nil disables injection entirely).
func buildInjector(a chaosConfigArgs) (*chaos.Injector, error) {
	cfg := chaos.Config{
		Seed:              a.seed,
		DropRate:          a.drop,
		CorruptRate:       a.corrupt,
		PartitionRate:     a.partition,
		PartitionDuration: a.partitionDur,
		CrashRate:         a.crash,
		GraceOps:          a.grace,
	}
	var err error
	if a.latency != "" {
		if cfg.Latency, err = chaos.ParseDist(a.latency); err != nil {
			return nil, fmt.Errorf("-chaos-latency: %w", err)
		}
	}
	if a.taskLatency != "" {
		if cfg.TaskLatency, err = chaos.ParseDist(a.taskLatency); err != nil {
			return nil, fmt.Errorf("-chaos-task-latency: %w", err)
		}
	}
	if cfg.Latency.Kind == chaos.DistNone && cfg.TaskLatency.Kind == chaos.DistNone &&
		cfg.DropRate == 0 && cfg.CorruptRate == 0 && cfg.PartitionRate == 0 && cfg.CrashRate == 0 {
		return nil, nil
	}
	return chaos.New(cfg), nil
}

type masterOptions struct {
	addr, job     string
	lines, shards int
	workers       int
	seed          int64
	metricsAddr   string
	heartbeat     time.Duration
	trace         bool
	traceFile     string

	maxAttempts int
	retryBase   time.Duration
	speculate   time.Duration
	reducers    int
	chaos       *chaos.Injector
}

func runMaster(out io.Writer, opts masterOptions) error {
	registry, err := netmr.NewRegistry(builtinJobs()...)
	if err != nil {
		return err
	}
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{
		HeartbeatInterval:   opts.heartbeat,
		MaxAttempts:         opts.maxAttempts,
		RetryBaseDelay:      opts.retryBase,
		SpeculationInterval: opts.speculate,
		Reducers:            opts.reducers,
		Trace:               opts.trace,
		Chaos:               opts.chaos,
	})
	if err != nil {
		return err
	}
	bound, err := master.Listen(opts.addr)
	if err != nil {
		return err
	}
	defer master.Close()
	if opts.metricsAddr != "" {
		obsAddr, err := master.ServeObservability(opts.metricsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "serving metrics on http://%s/metrics\n", obsAddr)
	}
	fmt.Fprintf(out, "master listening on %s; waiting for %d worker(s)\n", bound, opts.workers)
	if err := master.WaitForWorkers(opts.workers, 5*time.Minute); err != nil {
		return err
	}

	input, err := workload.TextLines(opts.lines, 10, opts.seed)
	if err != nil {
		return err
	}
	result, stats, err := master.RunResult(context.Background(), opts.job, input, opts.shards)
	if err != nil {
		// A degraded run is still a diagnosable one: report everything
		// the master learned before it gave up, then fail.
		fmt.Fprintf(out, "job %q did not complete: %v\n", opts.job, err)
		fmt.Fprintf(out, "degraded: %d of %d shards completed on %d worker(s); partial statistics follow\n",
			stats.Completed, stats.Shards, stats.Workers)
		printStats(out, stats)
		if terr := emitTrace(out, master, opts, stats); terr != nil {
			fmt.Fprintf(out, "trace: %v\n", terr)
		}
		return err
	}
	total := 0.0
	result.Each(func(_ string, v float64) { total += v })
	fmt.Fprintf(out, "job %q over %d lines: %d keys, value total %.0f\n", opts.job, opts.lines, result.Len(), total)
	printStats(out, stats)
	return emitTrace(out, master, opts, stats)
}

// emitTrace surfaces the traced run: the span timeline and phase
// accounting on out with -trace, the JSON Lines dump with -tracefile.
// A no-op when tracing was off or the run produced no trace.
func emitTrace(out io.Writer, master *netmr.Master, opts masterOptions, stats netmr.Stats) error {
	if !opts.trace {
		return nil
	}
	trc := master.LastTrace()
	if trc == nil {
		return nil
	}
	if opts.traceFile != "" {
		f, err := os.Create(opts.traceFile)
		if err != nil {
			return err
		}
		if err := trc.WriteJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s (%d spans)\n", opts.traceFile, len(trc.Spans()))
	}
	return trc.WriteReport(out, stats)
}

// runTrace implements the offline `netmr trace report <file>`
// subcommand: parse a -tracefile dump and render the same timeline and
// phase accounting the live -trace run prints, with the master-side
// walls reconstructed from the trace's own phase spans.
func runTrace(args []string, out io.Writer) error {
	if len(args) != 2 || args[0] != "report" {
		return errors.New(`usage: netmr trace report <tracefile>`)
	}
	f, err := os.Open(args[1])
	if err != nil {
		return err
	}
	defer f.Close()
	trc, err := netmr.ReadTraceJSON(f)
	if err != nil {
		return err
	}
	return trc.WriteReport(out, trc.DerivedStats())
}

// printStats renders a Stats — complete or partial — in the CLI's
// output format.
func printStats(out io.Writer, stats netmr.Stats) {
	fmt.Fprintf(out, "workers %d, shards %d, completed %d, reassignments %d\n",
		stats.Workers, stats.Shards, stats.Completed, stats.Reassignments)
	if stats.Speculations > 0 || stats.Duplicates > 0 || stats.Cancellations > 0 {
		fmt.Fprintf(out, "speculations %d (wins %d), duplicates discarded %d, launches abandoned %d\n",
			stats.Speculations, stats.SpecWins, stats.Duplicates, stats.Cancellations)
	}
	if stats.Reducers > 0 {
		fmt.Fprintf(out, "reduce: %d task(s) on workers, %d map output(s) stored, %s shuffled\n",
			stats.ReduceTasks, stats.MapOutputsStored, formatBytes(stats.ShuffleBytes))
	}
	if stats.SpillRuns > 0 {
		fmt.Fprintf(out, "out-of-core: %d spill run(s), %s spilled\n",
			stats.SpillRuns, formatBytes(stats.SpilledBytes))
	}
	if stats.EarlyReduceTasks > 0 {
		fmt.Fprintf(out, "pipelined shuffle: %d reduce task(s) launched before the barrier, %d called back\n",
			stats.EarlyReduceTasks, stats.EarlyAborts)
	}
	if stats.ReplicaFetches > 0 || stats.RecoveryWall > 0 || stats.Failovers > 0 {
		fmt.Fprintf(out, "recovery: %d replica fetch(es), %d worker-local failover(s), recovery wall %v\n",
			stats.ReplicaFetches, stats.Failovers, stats.RecoveryWall)
	}
	fmt.Fprintf(out, "split %v | reduce %v | merge %v | total %v\n",
		stats.SplitWall, stats.ReduceWall, stats.MergeWall, stats.TotalWall)
	for _, w := range stats.PerWorker {
		fmt.Fprintf(out, "worker %s: shards %d, reassignments %d, busy %v\n", w.ID, w.ShardsRun, w.Reassignments, w.Busy)
	}
}

// formatBytes renders a byte count with a binary-unit suffix for the
// shuffle-volume line.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func runWorker(out io.Writer, addr string, injector *chaos.Injector, cfg netmr.WorkerConfig) error {
	registry, err := netmr.NewRegistry(builtinJobs()...)
	if err != nil {
		return err
	}
	wopts := []netmr.WorkerOption{netmr.WithWorkerConfig(cfg)}
	if injector.Enabled() {
		fmt.Fprintf(out, "fault injection enabled (seed %d)\n", injector.Seed())
		wopts = append(wopts, netmr.WithChaos(injector))
	}
	worker, err := netmr.NewWorker(registry, wopts...)
	if err != nil {
		return err
	}
	if err := worker.Start(addr); err != nil {
		return err
	}
	fmt.Fprintf(out, "worker serving jobs from %s (ctrl-c to stop)\n", addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	worker.Stop()
	return nil
}
