package main

import (
	"fmt"

	"ipso/internal/mapreduce"
	"ipso/internal/netmr"
	"ipso/internal/workload"
)

// Fixed cluster shape: 1 master + 2 workers (= nproc on the reference
// host), R = 2 reduce tasks. One client goroutine calls Master.Run and
// waits for it: a closed loop with one client.
const (
	clusterWorkers = 2
	reducers       = 2
)

// workloadSpec is one named workload: how its input is generated from the
// seed, which job runs over it, and how a run is cut into blocks.
type workloadSpec struct {
	name string
	why  string

	job      netmr.Job
	generate func(records int, seed int64) ([]string, error)
	records  int // input records at -scale 1
	shards   int

	// spillBudget is the per-worker SpillBudget at -scale 1 (0: nothing
	// spills). It scales with the record count so the number of spill
	// runs per job stays put.
	spillBudget int64

	// blockJobs is how many back-to-back jobs make one block: the unit
	// the median and p95 are taken over before the median over blocks.
	// It shrinks with -scale (floor minTailSamples) unless it is 1.
	blockJobs int
	// warmJobs are run after cluster-up, inside setup_s, before timing.
	warmJobs int
	// gcBetween forces a collection between reps, outside the timed
	// window, so collecting one rep's result map does not land in the
	// next rep. smalljobs leaves the collector alone: back-to-back tiny
	// jobs pay GC as they would in service.
	gcBetween bool

	// yardNominal is what the workload's yardstick (yardstick.go) takes
	// on the reference host when the host is quiet: end-to-end times are
	// reported as if every yardstick reading of the run had taken that
	// long. It sets the scale of the numbers and nothing else.
	yardNominal float64
}

// yardRecords is how many of the input's first records the yardstick
// works on (all of them on smalljobs).
const yardRecords = 100_000

// minTailSamples is the smallest block a p95 is read from: at 20 samples
// the nearest-rank p95 is the 19th, the last with one sample beyond it.
const minTailSamples = 20

// minBlocks is the fewest measured blocks a run reports a median over,
// even when -seconds runs out first.
const minBlocks = 5

var workloads = []workloadSpec{
	{
		name: "wc-lowcard",
		why:  "1000 distinct keys: the combiner collapses everything, so time is the map wave plus task-frame codec and dispatch gap; shuffle, spill and reduce changes must not move it",
		job:  wordCountJob(), generate: textLines, records: 3_000_000, shards: 32,
		blockJobs: 1, warmJobs: 1, gcBetween: true,
		yardNominal: 0.030,
	},
	{
		name: "tera-mem",
		why:  "TeraSort shape, map output = input and nothing combines: time is partition split, result encode, replicate, fetch, fold and the master's union; map-loop changes must not move it",
		job:  distinctJob(), generate: teraLines, records: 500_000, shards: 32,
		blockJobs: 1, warmJobs: 1, gcBetween: true,
		yardNominal: 0.055,
	},
	{
		name: "tera-spill",
		why:  "tera-mem under a per-worker spill budget: fetches served from disk, fold through sorted runs and the loser tree; paired with tera-mem so a spill gain that costs the in-memory path shows",
		job:  distinctJob(), generate: teraLines, records: 500_000, shards: 32,
		spillBudget: 8 << 20,
		blockJobs:   1, warmJobs: 1, gcBetween: true,
		yardNominal: 0.055,
	},
	{
		name: "smalljobs",
		why:  "back-to-back 400-line jobs on one standing cluster: per-job fixed cost (scheduling loop, frame round-trips, reduce dispatch); byte-path changes must not move it, added fixed latency shows",
		job:  wordCountJob(), generate: textLines, records: 400, shards: 8,
		blockJobs: 500, warmJobs: 200,
		yardNominal: 0.00058,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks record counts and the spill budget together; smoke runs
// only. smalljobs keeps its 400 lines (the job is the fixed cost, not the
// bytes) and shrinks its block and warm-up counts instead.
func (w workloadSpec) scaled(scale float64) workloadSpec {
	if scale >= 1 {
		return w
	}
	shrink := func(n, floor int) int {
		if n = int(float64(n) * scale); n < floor {
			n = floor
		}
		return n
	}
	if w.blockJobs > 1 {
		w.blockJobs = shrink(w.blockJobs, minTailSamples)
		w.warmJobs = shrink(w.warmJobs, 1)
		return w
	}
	w.records = shrink(w.records, w.shards)
	w.spillBudget = int64(float64(w.spillBudget) * scale)
	return w
}

func sum(_ string, values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}

func add(acc, v float64) float64 { return acc + v }

// wordCountJob emits (word, 1) per space-separated word and sums.
func wordCountJob() netmr.Job {
	return netmr.Job{
		Name: "wordcount",
		Map: func(record string, emit func(string, float64)) {
			start := 0
			for i := 0; i <= len(record); i++ {
				if i == len(record) || record[i] == ' ' {
					if i > start {
						emit(record[start:i], 1)
					}
					start = i + 1
				}
			}
		},
		Reduce:  sum,
		Combine: add,
	}
}

// distinctJob emits (record, 1) and sums: map output is the input, no two
// records combine, and the result is one entry per distinct record — the
// data movement of a sort without an ordering step the runtime lacks.
func distinctJob() netmr.Job {
	return netmr.Job{
		Name:    "distinct",
		Map:     func(record string, emit func(string, float64)) { emit(record, 1) },
		Reduce:  sum,
		Combine: add,
	}
}

func textLines(records int, seed int64) ([]string, error) {
	return workload.TextLines(records, 10, seed)
}

// teraLines renders TeraGen records as 100-byte lines (key then payload).
func teraLines(records int, seed int64) ([]string, error) {
	recs, err := workload.TeraGen(records, seed)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key + r.Payload
	}
	return out, nil
}

func inputBytes(records []string) int64 {
	var n int64
	for _, r := range records {
		n += int64(len(r))
	}
	return n
}

// reference runs the job single-threaded through the in-memory engine:
// the verification oracle and the baseline job_s is read against.
func reference(job netmr.Job, records []string) (map[string]float64, error) {
	return mapreduce.LocalJob[string, string, float64]{Map: job.Map, Reduce: job.Reduce}.Run(records, 1)
}

// verify compares a result with the oracle exactly: same key set, same
// values. Every value is an integer sum, so float equality is exact.
func verify(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d keys, oracle %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("result lacks key %.40q", k)
		}
		if g != w {
			return fmt.Errorf("key %.40q: got %v, oracle %v", k, g, w)
		}
	}
	return nil
}
