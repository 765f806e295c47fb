package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: ipso
cpu: Some CPU @ 2.20GHz
BenchmarkFig2_FixedTimeTaxonomy-8   	     100	     68768 ns/op	    2880 B/op	      45 allocs/op
BenchmarkProvisioning   	      50	     22168.5 ns/op
BenchmarkNoMem-16   	       1	     12345 ns/op	     100 B/op	       2 allocs/op
PASS
ok  	ipso	1.234s
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d rows, want 3: %v", len(got), got)
	}
	fig2, ok := got["BenchmarkFig2_FixedTimeTaxonomy"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", got)
	}
	if fig2.Iterations != 100 || fig2.NsPerOp != 68768 || fig2.BytesPerOp != 2880 || fig2.AllocsPerOp != 45 {
		t.Errorf("fig2 = %+v", fig2)
	}
	prov := got["BenchmarkProvisioning"]
	if prov.NsPerOp != 22168.5 || prov.BytesPerOp != 0 {
		t.Errorf("row without -benchmem fields = %+v", prov)
	}
}

// TestParseCustomMetrics: b.ReportMetric columns sit between ns/op and
// B/op in go's output; the pair-walking parser must capture them without
// losing the standard columns around them.
func TestParseCustomMetrics(t *testing.T) {
	const output = `BenchmarkMerge-8   	      10	  51234 ns/op	        12.50 merge-ms/op	  2880 B/op	      45 allocs/op
`
	got, err := Parse(strings.NewReader(output))
	if err != nil {
		t.Fatal(err)
	}
	b := got["BenchmarkMerge"]
	if b.NsPerOp != 51234 || b.BytesPerOp != 2880 || b.AllocsPerOp != 45 {
		t.Errorf("standard columns around a custom metric mis-parsed: %+v", b)
	}
	if b.Metrics["merge-ms/op"] != 12.5 {
		t.Errorf("custom metric = %v, want 12.5", b.Metrics)
	}
}

// TestParseKeepsCPUVariants: under -cpu 1,4 the same benchmark appears
// with and without a -N suffix; both rows must survive in the document.
func TestParseKeepsCPUVariants(t *testing.T) {
	const output = `BenchmarkMerge   	      10	  90000 ns/op
BenchmarkMerge-4 	      10	  30000 ns/op
`
	got, err := Parse(strings.NewReader(output))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d rows, want both cpu variants: %v", len(got), got)
	}
	if got["BenchmarkMerge"].NsPerOp != 90000 || got["BenchmarkMerge-4"].NsPerOp != 30000 {
		t.Errorf("cpu variants collided: %v", got)
	}
}

func TestRunEmitsDocument(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-commit", "abc123", "-date", "2026-08-05", "-go", "go1.22"},
		strings.NewReader(sampleOutput), &out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Commit != "abc123" || doc.Date != "2026-08-05" || doc.Go != "go1.22" {
		t.Errorf("provenance = %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Errorf("document has %d benchmarks, want 3", len(doc.Benchmarks))
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("PASS\nok ipso 0.1s\n"), &out); err == nil {
		t.Error("no benchmark rows should be an error")
	}
}

func writeDoc(t *testing.T, name string, doc Document) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/" + name
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGatesOnAllocRegressions(t *testing.T) {
	oldDoc := Document{Benchmarks: map[string]Benchmark{
		"BenchmarkA":    {NsPerOp: 100, AllocsPerOp: 1000},
		"BenchmarkB":    {NsPerOp: 100, AllocsPerOp: 1000},
		"BenchmarkGone": {NsPerOp: 1, AllocsPerOp: 1},
	}}
	newDoc := Document{Benchmarks: map[string]Benchmark{
		"BenchmarkA":   {NsPerOp: 500, AllocsPerOp: 1050}, // +5% allocs: fine; ns/op is not gated
		"BenchmarkB":   {NsPerOp: 50, AllocsPerOp: 1200},  // +20% allocs: regression
		"BenchmarkNew": {NsPerOp: 1, AllocsPerOp: 1},      // no baseline: passed by -allow-new
	}}
	oldPath := writeDoc(t, "old.json", oldDoc)
	newPath := writeDoc(t, "new.json", newDoc)

	var out strings.Builder
	err := run([]string{"-compare", oldPath, newPath, "-max-alloc-regress", "10%", "-allow-new"}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatalf("20%% alloc regression passed the 10%% gate; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkB") || strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("gate named the wrong benchmarks: %v", err)
	}
	for _, want := range []string{"BenchmarkA", "BenchmarkNew", "BenchmarkGone"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report is missing %s:\n%s", want, out.String())
		}
	}

	// A looser limit passes.
	out.Reset()
	if err := run([]string{"-compare", oldPath, newPath, "-max-alloc-regress", "25", "-allow-new"}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("25%% limit should pass: %v", err)
	}
}

// TestCompareFailsWithoutBaseline: a benchmark the baseline lacks fails
// the comparison, named, unless -allow-new; one only the baseline has
// passes.
func TestCompareFailsWithoutBaseline(t *testing.T) {
	oldPath := writeDoc(t, "old.json", Document{Benchmarks: map[string]Benchmark{
		"BenchmarkA":    {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkGone": {NsPerOp: 1, AllocsPerOp: 1},
	}})
	newPath := writeDoc(t, "new.json", Document{Benchmarks: map[string]Benchmark{
		"BenchmarkA":   {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkNew": {NsPerOp: 1, AllocsPerOp: 1},
	}})
	var out strings.Builder
	err := run([]string{"-compare", oldPath, newPath}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkNew has no baseline") || strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("a benchmark without a baseline: %v; want the comparison failed naming it alone", err)
	}
	if err := run([]string{"-compare", oldPath, newPath, "-allow-new"}, strings.NewReader(""), &out); err != nil {
		t.Errorf("-allow-new: %v", err)
	}
}

func TestCompareGatesOnNsRegressions(t *testing.T) {
	oldDoc := Document{Benchmarks: map[string]Benchmark{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 10},
	}}
	newDoc := Document{Benchmarks: map[string]Benchmark{
		"BenchmarkA": {NsPerOp: 120, AllocsPerOp: 10}, // +20% ns: under a 50% limit
		"BenchmarkB": {NsPerOp: 400, AllocsPerOp: 10}, // +300% ns: regression
	}}
	oldPath := writeDoc(t, "old.json", oldDoc)
	newPath := writeDoc(t, "new.json", newDoc)

	// Without the flag ns/op is not gated at all.
	var out strings.Builder
	if err := run([]string{"-compare", oldPath, newPath}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("ns/op gated without -max-ns-regress: %v", err)
	}

	out.Reset()
	err := run([]string{"-compare", oldPath, newPath, "-max-ns-regress", "50%"}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatalf("+300%% ns/op passed the 50%% gate; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkB") || strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("ns gate named the wrong benchmarks: %v", err)
	}
}

func TestCompareArgValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-compare", "only-one.json"}, strings.NewReader(""), &out); err == nil {
		t.Error("one file argument should be an error")
	}
	if err := run([]string{"-compare", "a.json", "b.json", "-max-alloc-regress", "nope"}, strings.NewReader(""), &out); err == nil {
		t.Error("unparsable percentage should be an error")
	}
	if err := run([]string{"-compare", "/does/not/exist.json", "/nope.json"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing input file should be an error")
	}
}
