package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestVerifyCatchesMismatches(t *testing.T) {
	oracle := map[string]float64{"a": 1, "b": 2, "c": 3}
	if err := verify(map[string]float64{"a": 1, "b": 2, "c": 3}, oracle); err != nil {
		t.Fatalf("equal maps: %v", err)
	}
	for name, got := range map[string]map[string]float64{
		"perturbed value": {"a": 1, "b": 2.5, "c": 3},
		"missing key":     {"a": 1, "b": 2},
		"renamed key":     {"a": 1, "b": 2, "d": 3},
		"extra key":       {"a": 1, "b": 2, "c": 3, "d": 4},
	} {
		if err := verify(got, oracle); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
}

// The yardstick computes what the job computes, every time, and fails
// instead of hanging once it is closed.
func TestYardstick(t *testing.T) {
	for _, name := range []string{"tera-mem", "smalljobs"} { // both jobs
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.scaled(0.01)
		recs, err := w.generate(w.records, 7)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference(w.job, recs)
		if err != nil {
			t.Fatal(err)
		}
		y, err := newYardstick(w.job, recs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := y.exec()
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if err := verify(got, want); err != nil {
				t.Errorf("%s, run %d: %v", w.name, i, err)
			}
		}
		if s, err := y.run(); err != nil || s <= 0 {
			t.Errorf("%s: run = %v, %v", w.name, s, err)
		}
		y.close()
		if _, err := y.run(); err == nil {
			t.Errorf("%s: run after close succeeded", w.name)
		}
	}
}

// The values Python's statistics.quantiles(xs, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 8}, 3, 9}, // two values: Python extrapolates past both
		{[]float64{6}, 6, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

const compareSpec = `{
  "workloads": [{"name": "w1"}, {"name": "w2"}],
  "end_to_end": [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "mb_per_s", "unit": "MB/s", "better": "higher", "bound": 0.10}
  ]
}`

// ledgerText writes one ledger line per value pair.
func ledgerText(workload string, failed int, jobS, mbps []float64) string {
	var sb strings.Builder
	for i := range jobS {
		fmt.Fprintf(&sb, `{"workload":%q,"seed":%d,"trace":0,"correct":%t,"attempted":10,"failed":%d,"metrics":{"job_s":{"value":%g,"unit":"s"},"mb_per_s":{"value":%g,"unit":"MB/s"}}}`+"\n",
			workload, i, failed == 0, failed, jobS[i], mbps[i])
	}
	// A traced line must be ignored by -compare.
	fmt.Fprintf(&sb, `{"workload":%q,"seed":0,"trace":1,"correct":true,"attempted":1,"failed":0,"metrics":{"job_s":{"value":1e9,"unit":"s"}}}`+"\n", workload)
	return sb.String()
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", compareSpec)
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.80, 1.00, 1.20, 0.90, 1.10} // quartile spread 30% of the median
	rates := []float64{100, 101, 99, 100, 102}
	base := write("a.json", ledgerText("w1", 0, steady, rates)+ledgerText("w2", 0, noisy, rates))

	for _, tc := range []struct {
		name      string
		b         string
		regressed bool
		rows      map[string]string // "workload metric" -> verdict
	}{
		{
			name: "same numbers",
			b:    ledgerText("w1", 0, steady, rates) + ledgerText("w2", 0, noisy, rates),
			rows: map[string]string{"w1 job_s": verdictOK, "w1 mb_per_s": verdictOK, "w2 job_s": verdictUnresolved, "w1 failed_share": verdictOK},
		},
		{
			name:      "slower job and lower rate",
			b:         ledgerText("w1", 0, []float64{1.2, 1.21, 1.19, 1.2, 1.22}, []float64{80, 81, 79, 80, 82}) + ledgerText("w2", 0, noisy, rates),
			regressed: true,
			rows:      map[string]string{"w1 job_s": verdictRegression, "w1 mb_per_s": verdictRegression, "w2 job_s": verdictUnresolved},
		},
		{
			name: "noisy but every run better",
			b:    ledgerText("w1", 0, steady, rates) + ledgerText("w2", 0, []float64{0.5, 0.6, 0.7, 0.55, 0.65}, rates),
			rows: map[string]string{"w2 job_s": verdictBetter},
		},
		{
			name:      "more failures",
			b:         ledgerText("w1", 1, steady, rates) + ledgerText("w2", 0, noisy, rates),
			regressed: true,
			rows:      map[string]string{"w1 job_s": verdictOK, "w1 failed_share": verdictRegression, "w2 failed_share": verdictOK},
		},
		{
			name: "workload absent from b",
			b:    ledgerText("w1", 0, steady, rates),
			rows: map[string]string{"w2 job_s": verdictMissing},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			regressed, err := compareLedgers(&out, spec, base, write("b.json", tc.b))
			if err != nil {
				t.Fatal(err)
			}
			if regressed != tc.regressed {
				t.Errorf("regressed = %v, want %v\n%s", regressed, tc.regressed, out.String())
			}
			got := map[string]string{}
			for _, line := range strings.Split(out.String(), "\n")[1:] {
				if f := strings.Fields(line); len(f) > 2 {
					got[f[0]+" "+f[1]] = f[len(f)-1]
				}
			}
			if len(got) != 6 {
				t.Errorf("want one row per workload x metric plus failed_share (6), got %d\n%s", len(got), out.String())
			}
			for row, want := range tc.rows {
				if got[row] != want {
					t.Errorf("%s: verdict %q, want %q\n%s", row, got[row], want, out.String())
				}
			}
		})
	}

	// The command exits non-zero on a regression.
	slow := write("slow.json", ledgerText("w1", 0, []float64{2, 2, 2}, []float64{100, 100, 100})+ledgerText("w2", 0, noisy, rates))
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-compare", "-spec", spec, base, slow}, &out, &errOut); code != 1 {
		t.Errorf("exit code %d on a regression, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if code := realMain([]string{"-compare", "-spec", spec, base, base}, &out, &errOut); code != 0 {
		t.Errorf("exit code %d comparing a ledger with itself, want 0\n%s", code, errOut.String())
	}
}

// benchmarkJSON is the committed contract the emitted metrics must match.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload in both modes at -scale 0.01 through the
// command's own entry point and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract benchmarkJSON
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(contract.Workloads), len(workloads))
	}
	want := map[int]map[string]string{0: {}, 1: {}} // trace mode -> metric name -> unit
	for _, m := range contract.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range contract.PerLayer {
		want[1][m.Name] = m.Unit
	}
	const scale = 0.01

	for i, w := range workloads {
		if contract.Workloads[i].Name != w.name || contract.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or the why differs)", i, contract.Workloads[i].Name, w.name)
		}
		for trace := 0; trace <= 1; trace++ {
			w, trace := w, trace
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				dir := t.TempDir()
				var out, errOut bytes.Buffer
				code := realMain([]string{
					"-workload", w.name, "-seed", "7", "-seconds", "0.05", "-scale", fmt.Sprint(scale),
					"-trace", fmt.Sprint(trace), "-out", dir, "-ledger", filepath.Join(dir, "ledger.json"),
				}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit code %d\n%s%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
				var res resultLine
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, failed %d, attempted %d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want[trace]) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want[trace]))
				}
				for name, unit := range want[trace] {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s: not emitted", name)
					case m.Unit != unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: value %v is not finite", name, m.Value)
					case !metricName.MatchString(name):
						t.Errorf("%s: not a valid metric name", name)
					case trace == 0 && m.Value <= 0:
						t.Errorf("%s: end-to-end value %v must be positive", name, m.Value)
					}
					printed := 0
					for _, line := range lines[:len(lines)-1] {
						if f := strings.Fields(line); len(f) > 0 && f[0] == name {
							printed++
						}
					}
					if printed != 1 {
						t.Errorf("%s: listed %d times, want once", name, printed)
					}
				}
				if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("spans-%s-trace%d.jsonl", w.name, trace))); err != nil {
					t.Errorf("span dump: %v", err)
				}
				if trace == 0 {
					return
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				for _, zero := range []string{
					"netmr.trace.open_launches", "proc.goroutines_leaked", "netmr.spill.files_left",
					"netmr.spill.errors", "netmr.master.reassignments", "netmr.shuffle.failovers",
				} {
					if v(zero) != 0 {
						t.Errorf("%s = %v, want 0", zero, v(zero))
					}
				}
				if r := v("netmr.trace.identity_residual_s"); r >= 1e-6 {
					t.Errorf("trace identity residual %v s, want < 1e-6", r)
				}
				budget := float64(w.scaled(scale).spillBudget)
				switch w.name {
				case "tera-spill":
					if v("netmr.spill.runs") <= 0 {
						t.Errorf("netmr.spill.runs = %v, want > 0", v("netmr.spill.runs"))
					}
					if peak := v("netmr.spill.peak_resident_bytes"); peak > budget {
						t.Errorf("peak resident %v bytes exceeds the budget %v", peak, budget)
					}
				default:
					if v("netmr.spill.runs") != 0 {
						t.Errorf("netmr.spill.runs = %v, want 0", v("netmr.spill.runs"))
					}
				}
			})
		}
	}
}

// The tables in metrics.go carry what BENCHMARK.json repeats; a bound or
// a direction changed in one place only would make -compare and the
// pipeline disagree.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract benchmarkJSON
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.EndToEnd) != len(endToEnd) || len(contract.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, metrics.go %d + %d",
			len(contract.EndToEnd), len(contract.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if c := contract.EndToEnd[i]; c.Name != d.name || c.Unit != d.unit || c.Better != d.better || c.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, metrics.go %+v", i, c, d)
		}
	}
	for i, d := range perLayer {
		if c := contract.PerLayer[i]; c.Name != d.name || c.Unit != d.unit || c.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, metrics.go %+v", i, c, d)
		}
		if d.moves == "" {
			t.Errorf("%s: no interaction prediction", d.name)
		}
	}
}
