// Command benchjson converts `go test -bench` output into a stable JSON
// document mapping each benchmark to its measured cost, stamped with the
// commit and date it was measured at:
//
//	go test -bench=. -benchtime=5x -benchmem | benchjson -commit $(git rev-parse HEAD) -o BENCH_ipsobench.json
//
// CI uses it to publish BENCH_ipsobench.json as both a build artifact
// and a committed baseline at the repo root, so benchmark history is
// queryable from the git log alone, without an external dashboard.
//
// It can also diff two such documents and gate on regressions:
//
//	benchjson -compare old.json new.json -max-alloc-regress 10%
//	benchjson -compare old.json new.json -max-ns-regress 50%
//
// -max-alloc-regress gates allocs_per_op, the one benchmark statistic
// deterministic enough to enforce tightly on shared CI runners;
// -max-ns-regress (off by default) additionally gates ns_per_op — it
// exists to catch order-of-magnitude slowdowns, so its threshold should
// be generous, well above runner noise. Either gate exits nonzero when
// any benchmark grew by more than its percentage over the baseline. A
// benchmark the new document has and the baseline lacks fails too, so a
// committed baseline stays complete; -allow-new lets it pass, for a
// baseline measured from code that predates the benchmark.
//
// Custom b.ReportMetric units (e.g. "merge-ms/op") are preserved in a
// per-benchmark metrics map, reported in comparisons, and never gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's measured cost. Metrics carries any
// custom b.ReportMetric pairs (unit → value) beyond the standard three.
type Benchmark struct {
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Document is the file layout: provenance plus name→cost. Marshalling a
// map sorts its keys, so regenerated files diff cleanly.
type Document struct {
	Commit     string               `json:"commit"`
	Date       string               `json:"date"`
	Go         string               `json:"go,omitempty"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output and collects the result rows, e.g.
// "BenchmarkFig2-8   	 100	 68768 ns/op	 2880 B/op	 45 allocs/op".
// A row is walked as (value, unit) field pairs after the name and
// iteration count, so custom b.ReportMetric units (which a fixed-order
// pattern would silently drop, along with every standard column after
// them) land in Metrics. The trailing -N GOMAXPROCS suffix is stripped
// so the key is stable across machines — unless the stripped name is
// already taken, which happens under -cpu 1,4: then the suffixed name is
// kept so both widths survive in one document. Non-benchmark lines
// (goos, pkg, PASS, ok) are ignored; a malformed number inside a result
// row is an error.
func Parse(r io.Reader) (map[string]Benchmark, error) {
	out := map[string]Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		// name, iterations, then at least one value/unit pair.
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue // e.g. a verbose-mode "BenchmarkX" start line
		}
		b := Benchmark{Iterations: iters}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad %s value in %q: %w", f[i+1], line, err)
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				if _, taken := out[name[:i]]; !taken {
					name = name[:i]
				}
			}
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parsePercent accepts "10%" or "10" and returns 10.0.
func parsePercent(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("benchjson: bad percentage %q", s)
	}
	return v, nil
}

func readDoc(path string) (Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return Document{}, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return doc, nil
}

// compare diffs two documents and returns an error naming every
// benchmark whose allocs_per_op regressed more than maxAllocRegress
// percent, or — when maxNsRegress is non-negative — whose ns_per_op
// regressed more than maxNsRegress percent, and, unless allowNew, every
// benchmark the baseline lacks. A benchmark only the baseline has is
// reported and passes: a removed one has nothing to regress.
func compare(oldDoc, newDoc Document, maxAllocRegress, maxNsRegress float64, allowNew bool, w io.Writer) error {
	names := make([]string, 0, len(newDoc.Benchmarks))
	for name := range newDoc.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		nb := newDoc.Benchmarks[name]
		ob, ok := oldDoc.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-50s (no baseline)\n", name)
			if !allowNew {
				failures = append(failures, fmt.Sprintf("%s has no baseline", name))
			}
			continue
		}
		nsDelta := pctChange(ob.NsPerOp, nb.NsPerOp)
		allocDelta := pctChange(ob.AllocsPerOp, nb.AllocsPerOp)
		fmt.Fprintf(w, "%-50s ns/op %+7.1f%%   allocs/op %12.0f -> %-12.0f %+7.1f%%\n",
			name, nsDelta, ob.AllocsPerOp, nb.AllocsPerOp, allocDelta)
		for _, unit := range sortedUnits(nb.Metrics) {
			fmt.Fprintf(w, "%-50s %s %g -> %g\n", name, unit, ob.Metrics[unit], nb.Metrics[unit])
		}
		if ob.AllocsPerOp > 0 && allocDelta > maxAllocRegress {
			failures = append(failures, fmt.Sprintf("%s allocs/op %+.1f%% (limit %+.1f%%)", name, allocDelta, maxAllocRegress))
		}
		if maxNsRegress >= 0 && ob.NsPerOp > 0 && nsDelta > maxNsRegress {
			failures = append(failures, fmt.Sprintf("%s ns/op %+.1f%% (limit %+.1f%%)", name, nsDelta, maxNsRegress))
		}
	}
	for name := range oldDoc.Benchmarks {
		if _, ok := newDoc.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "%-50s (removed)\n", name)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchjson: regressions over the baseline, or benchmarks it lacks:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}

func pctChange(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return 100 * (newV - oldV) / oldV
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	commit := fs.String("commit", "", "commit hash the benchmarks were measured at")
	date := fs.String("date", "", "measurement date (e.g. 2026-08-05)")
	goVersion := fs.String("go", "", "go toolchain version used")
	outPath := fs.String("o", "", "output file (default stdout)")
	compareMode := fs.Bool("compare", false, "compare two benchmark JSON files (args: old.json new.json) instead of converting")
	maxAllocRegress := fs.String("max-alloc-regress", "10%", "with -compare: fail when allocs_per_op grows more than this over the baseline")
	maxNsRegress := fs.String("max-ns-regress", "", "with -compare: also fail when ns_per_op grows more than this (empty = ns/op not gated)")
	allowNew := fs.Bool("allow-new", false, "with -compare: pass a benchmark the baseline lacks instead of failing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compareMode {
		rest := fs.Args()
		if len(rest) < 2 {
			return fmt.Errorf("benchjson: -compare needs exactly two arguments: old.json new.json")
		}
		oldPath, newPath := rest[0], rest[1]
		// Flag parsing stops at the first positional; pick up flags given
		// after the two files (benchjson -compare old new -max-alloc-regress 10%).
		if err := fs.Parse(rest[2:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("benchjson: -compare takes exactly two files, got extra %q", fs.Args())
		}
		limit, err := parsePercent(*maxAllocRegress)
		if err != nil {
			return err
		}
		nsLimit := -1.0 // negative disables the ns/op gate
		if *maxNsRegress != "" {
			if nsLimit, err = parsePercent(*maxNsRegress); err != nil {
				return err
			}
		}
		oldDoc, err := readDoc(oldPath)
		if err != nil {
			return err
		}
		newDoc, err := readDoc(newPath)
		if err != nil {
			return err
		}
		return compare(oldDoc, newDoc, limit, nsLimit, *allowNew, stdout)
	}
	benches, err := Parse(stdin)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("benchjson: no benchmark rows on stdin")
	}
	doc := Document{Commit: *commit, Date: *date, Go: *goVersion, Benchmarks: benches}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(*outPath, data, 0o644)
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
