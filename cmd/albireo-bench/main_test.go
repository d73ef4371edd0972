package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: albireo
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFunctionalConv-4         	     300	   1377246 ns/op	    8248 B/op	       2 allocs/op
BenchmarkFunctionalPLCUStep-4     	  936718	      1174 ns/op	      48 B/op	       1 allocs/op
BenchmarkFleetInfer/pool2-4       	     300	   3482186 ns/op	   31897 B/op	      22 allocs/op
BenchmarkEndToEndInference-4      	   10000	    100000 ns/op
PASS
ok  	albireo	3.712s
`

func TestParse(t *testing.T) {
	t.Parallel()
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks, want 4: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	// Sorted by name, proc suffix trimmed.
	if rep.Benchmarks[0].Name != "BenchmarkEndToEndInference" {
		t.Errorf("first benchmark = %q, want BenchmarkEndToEndInference", rep.Benchmarks[0].Name)
	}
	var conv *Result
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "BenchmarkFunctionalConv" {
			conv = &rep.Benchmarks[i]
		}
	}
	if conv == nil {
		t.Fatal("BenchmarkFunctionalConv not parsed")
	}
	if conv.Iterations != 300 || conv.NsPerOp != 1377246 || conv.BytesPerOp != 8248 || conv.AllocsPerOp != 2 {
		t.Errorf("FunctionalConv parsed as %+v", *conv)
	}
}

func TestTrimProcSuffix(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"BenchmarkFunctionalConv-4":   "BenchmarkFunctionalConv",
		"BenchmarkFleetInfer/pool2-8": "BenchmarkFleetInfer/pool2",
		"BenchmarkNoSuffix":           "BenchmarkNoSuffix",
		"BenchmarkAblation-K2-4":      "BenchmarkAblation-K2",
	}
	for in, want := range cases {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// writeSample runs the tool over the sample input, writing JSON to a
// temp file, and returns the path plus the run error.
func runTool(t *testing.T, extra ...string) (string, string, error) {
	t.Helper()
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_core.json")
	args := append([]string{"-json", jsonPath}, extra...)
	var out strings.Builder
	err := run(args, strings.NewReader(sample), &out)
	return jsonPath, out.String(), err
}

func TestRunWritesJSON(t *testing.T) {
	t.Parallel()
	jsonPath, out, err := runTool(t)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("read JSON: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Errorf("JSON has %d benchmarks, want 4", len(rep.Benchmarks))
	}
	if !strings.Contains(out, "BenchmarkFunctionalConv") {
		t.Errorf("summary output missing FunctionalConv:\n%s", out)
	}
}

// writeBaseline commits a baseline file with the given allocs/op for
// BenchmarkFunctionalConv.
func writeBaseline(t *testing.T, allocs float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	rep := Report{Benchmarks: []Result{{Name: "BenchmarkFunctionalConv", AllocsPerOp: allocs}}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePasses(t *testing.T) {
	t.Parallel()
	base := writeBaseline(t, 2) // measured 2 allocs/op == baseline
	if _, out, err := runTool(t, "-baseline", base); err != nil {
		t.Fatalf("gate failed on matching baseline: %v\n%s", err, out)
	}
}

func TestGateCatchesRegression(t *testing.T) {
	t.Parallel()
	base := writeBaseline(t, 0) // limit 0*1.1+1 = 1 < measured 2
	_, _, err := runTool(t, "-baseline", base)
	if err == nil || !strings.Contains(err.Error(), "allocation regression") {
		t.Fatalf("gate passed a regression (err=%v)", err)
	}
}

func TestGateCatchesMissingBenchmark(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "baseline.json")
	rep := Report{Benchmarks: []Result{{Name: "BenchmarkGone", AllocsPerOp: 1}}}
	data, _ := json.Marshal(rep)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := runTool(t, "-baseline", path)
	if err == nil || !strings.Contains(err.Error(), "not measured") {
		t.Fatalf("gate passed with a baseline benchmark missing (err=%v)", err)
	}
}

func TestRunEmptyInput(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if err := run(nil, strings.NewReader("PASS\n"), &out); err == nil {
		t.Fatal("want error for input with no benchmark lines")
	}
}
