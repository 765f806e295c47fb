package main

import (
	"math"
	"sort"
)

// metricDef names one ledger metric. BENCHMARK.json repeats name, unit
// and better (and, for end-to-end metrics, the bound); layer and moves
// are the interaction prediction — which end-to-end metric the layer
// metric should move, and on which workload — that BENCHMARK.json's fixed
// key set has no room for. The smoke test pins the two lists together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string
}

// endToEnd is what a user of the runtime sees, measured with tracing off.
// Every metric is defined on every workload (the driver requires one set):
// a block is one job on the three large workloads, so job_p95_s equals
// job_s and jobs_per_s equals 1/job_s there; only smalljobs has enough
// samples per block (blockJobs) for a tail percentile.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "job_s", unit: "s", better: "lower", bound: 0.25},
	{name: "job_p95_s", unit: "s", better: "lower", bound: 0.25},
	{name: "records_per_s", unit: "rec/s", better: "higher", bound: 0.25},
	{name: "mb_per_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_s_per_job", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer is the traced pass: layer = module, netmr split by file.
var perLayer = []metricDef{
	{name: "workload.generate_s", unit: "s", better: "lower", moves: "none (harness cost, kept out of setup_s)"},
	{name: "workload.input_records", unit: "count", better: "higher", moves: "none"},
	{name: "workload.input_bytes", unit: "bytes", better: "higher", moves: "none"},

	{name: "mapreduce.reference_s", unit: "s", better: "lower", moves: "baseline for job_s on the large workloads"},
	{name: "mapreduce.speedup_vs_reference", unit: "ratio", better: "higher", moves: "job_s on the large workloads"},

	{name: "netmr.worker.map_s", unit: "s", better: "lower", moves: "job_s, mb_per_s, cpu_s_per_job on wc-lowcard; none on tera-*"},
	{name: "netmr.worker.max_task_s", unit: "s", better: "lower", moves: "job_s on wc-lowcard"},
	{name: "netmr.worker.map_mbps", unit: "MB/s", better: "higher", moves: "mb_per_s on wc-lowcard"},
	{name: "netmr.worker.partition_s", unit: "s", better: "lower", moves: "job_s on tera-mem"},

	{name: "netmr.codec.decode_s", unit: "s", better: "lower", moves: "job_s on wc-lowcard and tera-mem; job_p95_s on smalljobs"},
	{name: "netmr.codec.encode_s", unit: "s", better: "lower", moves: "job_s on tera-mem; job_p95_s on smalljobs"},
	{name: "netmr.codec.decode_mbps", unit: "MB/s", better: "higher", moves: "mb_per_s on wc-lowcard"},

	{name: "netmr.master.cluster_up_s", unit: "s", better: "lower", moves: "setup_s"},
	{name: "netmr.master.split_wall_s", unit: "s", better: "lower", moves: "job_s on wc-lowcard"},
	{name: "netmr.master.reduce_wall_s", unit: "s", better: "lower", moves: "job_s on tera-mem and tera-spill"},
	{name: "netmr.master.merge_tail_s", unit: "s", better: "lower", moves: "job_s on tera-mem"},
	{name: "netmr.master.rpc_gap_s", unit: "s", better: "lower", moves: "job_s on wc-lowcard; job_s, job_p95_s, jobs_per_s on smalljobs"},
	{name: "netmr.master.wasted_s", unit: "s", better: "lower", moves: "job_s on every workload (0 on a healthy cluster)"},
	{name: "netmr.master.reassignments", unit: "count", better: "lower", moves: "job_s on every workload (0 on a healthy cluster)"},
	{name: "netmr.master.teardown_s", unit: "s", better: "lower", moves: "none"},

	{name: "netmr.shuffle.fetch_s", unit: "s", better: "lower", moves: "job_s on tera-mem and tera-spill; none on wc-lowcard"},
	{name: "netmr.shuffle.bytes", unit: "bytes", better: "lower", moves: "job_s on tera-mem and tera-spill"},
	{name: "netmr.shuffle.fetch_mbps", unit: "MB/s", better: "higher", moves: "job_s on tera-mem and tera-spill"},
	{name: "netmr.shuffle.fetches", unit: "count", better: "lower", moves: "job_p95_s on smalljobs"},
	{name: "netmr.shuffle.replicate_s", unit: "s", better: "lower", moves: "job_s on tera-mem and tera-spill"},
	{name: "netmr.shuffle.await_s", unit: "s", better: "lower", moves: "job_s on tera-mem once early shuffle is the default"},
	{name: "netmr.shuffle.hidden_fetch_s", unit: "s", better: "higher", moves: "job_s on tera-mem once early shuffle is the default"},
	{name: "netmr.shuffle.failovers", unit: "count", better: "lower", moves: "job_s on every workload (0 on a healthy cluster)"},

	{name: "netmr.shufflepool.hit_ratio", unit: "ratio", better: "higher", moves: "job_s on tera-mem; job_p95_s on smalljobs"},
	{name: "netmr.shufflepool.evictions", unit: "count", better: "lower", moves: "job_p95_s on smalljobs"},

	{name: "netmr.lz.bytes_saved", unit: "bytes", better: "higher", moves: "job_s on tera-spill (read beside cpu_s_per_job)"},

	{name: "netmr.spill.s", unit: "s", better: "lower", moves: "job_s on tera-spill; 0 elsewhere"},
	{name: "netmr.spill.runs", unit: "count", better: "lower", moves: "job_s on tera-spill; must be 0 elsewhere"},
	{name: "netmr.spill.bytes", unit: "bytes", better: "lower", moves: "job_s on tera-spill"},
	{name: "netmr.spill.write_mbps", unit: "MB/s", better: "higher", moves: "job_s on tera-spill"},
	{name: "netmr.spill.peak_resident_bytes", unit: "bytes", better: "lower", moves: "peak_rss_mb on tera-*; must stay within the budget on tera-spill"},
	{name: "netmr.spill.errors", unit: "count", better: "lower", moves: "none (must be 0)"},
	{name: "netmr.spill.files_left", unit: "count", better: "lower", moves: "none (must be 0)"},

	{name: "netmr.reduce.fold_s", unit: "s", better: "lower", moves: "job_s on tera-mem and tera-spill"},
	{name: "netmr.reduce.max_s", unit: "s", better: "lower", moves: "job_s on tera-mem and tera-spill"},

	{name: "netmr.trace.overhead_ratio", unit: "ratio", better: "lower", moves: "job_s on smalljobs once tracing is always on"},
	{name: "netmr.trace.identity_residual_s", unit: "s", better: "lower", moves: "none (must be < 1e-6)"},
	{name: "netmr.trace.open_launches", unit: "count", better: "lower", moves: "none (must be 0)"},
	{name: "netmr.trace.spans", unit: "count", better: "lower", moves: "job_s on smalljobs once tracing is always on"},
	{name: "netmr.trace.breakdown_s", unit: "s", better: "lower", moves: "none (cost of reading the ledger)"},

	{name: "core.wp_s", unit: "s", better: "lower", moves: "diagnostic reading of job_s"},
	{name: "core.ws_s", unit: "s", better: "lower", moves: "diagnostic reading of job_s"},
	{name: "core.wo_s", unit: "s", better: "lower", moves: "diagnostic reading of job_s"},
	{name: "core.q", unit: "ratio", better: "lower", moves: "diagnostic reading of job_s"},
	{name: "core.eta", unit: "ratio", better: "higher", moves: "diagnostic reading of job_s"},

	{name: "obs.scrape_s", unit: "s", better: "lower", moves: "none (cost of reading the ledger)"},

	{name: "proc.allocs_per_record", unit: "count", better: "lower", moves: "cpu_s_per_job and, through GC, job_s on every workload"},
	{name: "proc.alloc_bytes_per_record", unit: "bytes", better: "lower", moves: "cpu_s_per_job, peak_rss_mb on every workload"},
	{name: "proc.gc_cycles", unit: "count", better: "lower", moves: "cpu_s_per_job on every workload"},
	{name: "proc.gc_pause_s", unit: "s", better: "lower", moves: "job_s, job_p95_s on every workload"},
	{name: "proc.goroutines_leaked", unit: "count", better: "lower", moves: "none (must be 0)"},

	{name: "host.memcpy_mbps", unit: "MB/s", better: "higher", moves: "reference for netmr.worker.map_mbps"},
	{name: "host.loopback_mbps", unit: "MB/s", better: "higher", moves: "reference for netmr.shuffle.fetch_mbps"},
	{name: "host.seqwrite_mbps", unit: "MB/s", better: "higher", moves: "reference for netmr.spill.write_mbps (page-cache speed, no fsync)"},
	{name: "host.nproc", unit: "count", better: "higher", moves: "none"},
	{name: "host.yardstick_s", unit: "s", better: "lower", moves: "none (what the end-to-end times are divided by, over its nominal value)"},
	{name: "host.slowdown", unit: "ratio", better: "lower", moves: "none (divide a per-layer time by it to read it beside the end-to-end times)"},
}

// hostReference maps a derived MB/s layer metric to the speed-of-light
// reference it is printed beside.
var hostReference = map[string]string{
	"netmr.worker.map_mbps":    "host.memcpy_mbps",
	"netmr.shuffle.fetch_mbps": "host.loopback_mbps",
	"netmr.spill.write_mbps":   "host.seqwrite_mbps",
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 when empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank q-quantile (q in (0,1]) of xs.
func percentile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is the
// spread the pipeline applies to ten runs. Fewer than two values have no
// spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		rem := i*(n+1) - 4*j // past 4 or below 0 when j was clamped: Python extrapolates too
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	return at(1), at(3)
}

// ratio is a/b, 0 when b is 0: a layer that did no work has no rate.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
