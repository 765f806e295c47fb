// Command bench is the netmr performance ledger: it runs one named
// workload on an in-process cluster (1 master + 2 workers) through the
// public API of internal/netmr, checks every output against a reference,
// and prints every metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: wc-lowcard, tera-mem, tera-spill, smalljobs, or all (each in a fresh process)")
		seed    = fs.Int64("seed", 42, "input seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 16, "how long the measured loop runs")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from an untraced and a traced pass")
		scale   = fs.Float64("scale", 1, "shrink record counts and the spill budget together (smoke runs only)")
		out     = fs.String("out", ".bench_build", "scratch directory: spill files, the host write test, the span dump")
		ledger  = fs.String("ledger", "", "append this run's result as one JSON line to the file (input of -compare)")
		compare = fs.Bool("compare", false, "compare two ledger files: bench -compare a.json b.json")
		spec    = fs.String("spec", "BENCHMARK.json", "where -compare reads the regression bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two ledger files"))
		}
		regressed, err := compareLedgers(stdout, *spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *scale <= 0 || *scale > 1 {
		return fail(fmt.Errorf("-scale must be in (0, 1]"))
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	cfg := runConfig{spec: w.scaled(*scale), seed: *seed, seconds: *seconds, traced: *trace == 1, scale: *scale, dir: *out}
	res, rec, err := run(cfg)
	if rec != nil {
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-trace%d.jsonl", w.name, *trace))
		if werr := rec.writeFile(spans); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return fail(err)
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "bench: failed job:", e)
	}
	line := res.ledgerLine(w.name, *seed, *trace)
	printListing(stdout, cfg, res)
	if *ledger != "" {
		if err := appendLedger(*ledger, line); err != nil {
			return fail(err)
		}
	}
	// The result line is the last line of standard output.
	if err := json.NewEncoder(stdout).Encode(line.resultLine); err != nil {
		return fail(err)
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh process of this same binary, so
// peak_rss_mb and the allocator state of one do not leak into the next.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		// A later -workload wins over the earlier one in args.
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object printed as the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// ledgerLine is a result line plus what identifies the run: one line of
// a ledger file.
type ledgerLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	resultLine
}

func (r *runResult) ledgerLine(workload string, seed int64, trace int) ledgerLine {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return ledgerLine{
		Workload: workload, Seed: seed, Trace: trace,
		resultLine: resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics},
	}
}

func appendLedger(path string, line ledgerLine) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := json.NewEncoder(f).Encode(line); err != nil {
		f.Close()
		return fmt.Errorf("ledger: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}

// printListing prints every metric of the run by name, value and unit.
func printListing(w io.Writer, cfg runConfig, res *runResult) {
	fmt.Fprintf(w, "# workload %s  seed %d  seconds %g  traced %t  scale %g  records %d  shards %d  workers %d  reducers %d\n",
		cfg.spec.name, cfg.seed, cfg.seconds, cfg.traced, cfg.scale, cfg.spec.records, cfg.spec.shards, clusterWorkers, reducers)
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.6g %-6s", d.name, res.metrics[d.name], d.unit)
		if note := res.notes[d.name]; note != "" {
			fmt.Fprintf(w, "  (%s)", note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-34s %16.6g %-6s  (%d failed of %d attempted, every output compared with the oracle)\n",
		"failed_share", ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
}
