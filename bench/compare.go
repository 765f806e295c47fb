package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("compare: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("compare: %s: %w", path, err)
	}
	return s, nil
}

// ledgerRuns is the untraced runs of one ledger file, per workload.
type ledgerRuns map[string][]ledgerLine

func readLedger(path string) (ledgerRuns, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	defer f.Close()
	runs := ledgerRuns{}
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var l ledgerLine
		if err := dec.Decode(&l); err == io.EOF {
			return runs, nil
		} else if err != nil {
			return nil, fmt.Errorf("compare: %s: %w", path, err)
		}
		if l.Trace == 0 {
			runs[l.Workload] = append(runs[l.Workload], l)
		}
	}
}

func (r ledgerRuns) values(workload, metric string) []float64 {
	var xs []float64
	for _, l := range r[workload] {
		if v, ok := l.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func (r ledgerRuns) failedShare(workload string) (share float64, failed, attempted int) {
	for _, l := range r[workload] {
		failed += l.Failed
		attempted += l.Attempted
	}
	return ratio(float64(failed), float64(attempted)), failed, attempted
}

// Verdicts of one workload x metric row.
const (
	verdictOK         = "ok"         // median within the bound, spread within the bound
	verdictRegression = "regression" // median worse than the bound allows
	verdictUnresolved = "unresolved" // within the bound, but the spread is wider than the bound
	verdictBetter     = "better"     // spread wider than the bound, yet every run of b beats every run of a
	verdictMissing    = "missing"    // one side has no runs of this workload
)

// judge compares the runs of one metric on one workload. worse is how
// far b's median is worse than a's, as a share of a's median.
func judge(a, b []float64, better string, bound float64) (verdict string, worse float64) {
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing, 0
	}
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return verdictRegression, worse
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return ratio(q3-q1, median(xs))
	}
	if spread(a) <= bound && spread(b) <= bound {
		return verdictOK, worse
	}
	sa, sb := sorted(a), sorted(b)
	if better == "higher" && sb[0] > sa[len(sa)-1] || better == "lower" && sb[len(sb)-1] < sa[0] {
		return verdictBetter, worse
	}
	return verdictUnresolved, worse
}

// compareLedgers prints one row per workload x end-to-end metric and
// reports whether b regressed against a: a median worse than its bound,
// or a higher failed share.
func compareLedgers(w io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3] n\tb median [q1, q3] n\tworse by\tbound\tverdict")
	side := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] %d", median(xs), q1, q3, len(xs))
	}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			verdict, worse := judge(xa, xb, m.Better, m.Bound)
			regressed = regressed || verdict == verdictRegression
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, side(xa), side(xb), 100*worse, 100*m.Bound, verdict)
		}
		fa, failedA, attemptedA := a.failedShare(wl.Name)
		fb, failedB, attemptedB := b.failedShare(wl.Name)
		verdict := verdictOK
		if fb > fa {
			verdict, regressed = verdictRegression, true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%.5g (%d of %d)\t%.5g (%d of %d)\t\t0\t%s\n",
			wl.Name, fa, failedA, attemptedA, fb, failedB, attemptedB, verdict)
	}
	return regressed, tw.Flush()
}
