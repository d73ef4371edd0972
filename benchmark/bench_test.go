package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"albireo/internal/inference"
	"albireo/internal/tensor"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{5, 1, 3}, 50); got != 3 {
		t.Errorf("p50 of {5,1,3} = %g, want 3", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		beyond int
	}{{50, 50, 25}, {100, 90, 10}, {199, 90, 19}, {200, 95, 10}, {1000, 99, 10}, {10000, 99.9, 10}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if got := samplesBeyond(c.n, c.want); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.want, got, c.beyond)
		}
	}
}

// The expected cut points are statistics.quantiles(xs, n=4) in Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(120, 10*time.Second, 7)
	if b := poissonSchedule(120, 10*time.Second, 7); !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if c := poissonSchedule(120, 10*time.Second, 8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 1200 expected arrivals; five standard deviations is about 173.
	if n := len(a); n < 1027 || n > 1373 {
		t.Fatalf("%d arrivals in 10 s at 120/s", n)
	}
	for i, at := range a {
		if at < 0 || at >= 10*time.Second || (i > 0 && at < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or range", i, at)
		}
	}
}

// The reference kernel is the unit of latency, so every run of it must
// do the same work.
func TestReferenceKernelIsFixedWork(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	if ms := a.time(); ms <= 0 {
		t.Fatalf("reference kernel took %g ms", ms)
	}
	b.time()
	if a.sum != b.sum || a.state != b.state {
		t.Fatalf("two kernels diverged: sums %g and %g", a.sum, b.sum)
	}
}

func TestAccountSpans(t *testing.T) {
	spans := []span{
		{Name: "bench/request", ID: 1, Start: 0, End: 100},
		{Name: "fleet/op", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "fleet/op", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "core/conv", ID: 4, Parent: 2, Start: 15, End: 20},
		{Name: "nn/mlp", ID: 5, Parent: 1, Start: 70, End: 80},
		{Name: "nn/lstm", ID: 6, Parent: 1, Start: 80, End: 90},
	}
	st := accountSpans(spans)
	if st.requests != 1 || st.wall != 100 {
		t.Fatalf("requests %d wall %d, want 1 and 100", st.requests, st.wall)
	}
	// The two ops overlap, so together they cover 10..60 of the request.
	want := map[string]time.Duration{"bench/request": 30, "fleet/op": 25 + 30, "core/conv": 5, "nn": 20}
	if got := st.selfByLayer(); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if st.calls["fleet/op"] != 2 {
		t.Fatalf("fleet/op calls %d, want 2", st.calls["fleet/op"])
	}
}

// macCounter runs layers on the exact reference and counts the
// multiply-accumulates the functional network performs.
type macCounter struct {
	inference.Exact
	macs int64
}

func (m *macCounter) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	out := m.Exact.Conv(a, w, cfg, relu)
	m.macs += int64(len(out.Data)) * int64(w.Z*w.Y*w.X)
	return out
}

func (m *macCounter) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	out := m.Exact.FullyConnected(a, w, relu)
	m.macs += int64(len(out)) * int64(len(a.Data))
	return out
}

func (m *macCounter) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	m.macs += int64(a.R) * int64(a.C) * int64(b.C)
	return m.Exact.GEMM(a, b, relu)
}

// The performance model prices exactly the work the simulator runs.
func TestModelMACsMatchNetworks(t *testing.T) {
	for _, c := range []cnn{resnetCNN(false), mobilenetDWPW(false), tinyCNN(serveSize, serveSeed)} {
		if err := c.model.Validate(); err != nil {
			t.Fatal(err)
		}
		m := &macCounter{}
		c.net.Run(m, tensor.RandomVolume(c.inZ, c.size, c.size, 1))
		if got := c.model.TotalMACs(); got != m.macs {
			t.Errorf("%s: descriptor has %d MACs, network runs %d", c.model.Name, got, m.macs)
		}
	}
	z := newGEMMZoo(gemmZooSpec(false), modelSeed)
	m := &macCounter{}
	z.run(m, z.input(1), nil)
	if got := z.model.TotalMACs(); got != m.macs {
		t.Errorf("gemm-zoo: descriptor has %d MACs, blocks run %d", got, m.macs)
	}
	g := &macCounter{}
	g.GEMM(tensor.NewMatrix(gemmRows, gemmInner), tensor.NewMatrix(gemmInner, gemmCols), false)
	if got := serveGEMM.MACs(); got != g.macs {
		t.Errorf("serve gemm: descriptor has %d MACs, product runs %d", got, g.macs)
	}
}

// Every workload runs at smoke size, untraced and traced, passes its
// checks, and reports exactly the catalogued metrics.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 2, seconds: 0.2, trace: traced, smoke: true,
				workDir: dir, spans: filepath.Join(dir, w.name+".json"), setups: 2}
			res, failures, err := runOnce(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct %v attempted %d failed %d: %v", w.name, traced, res.Correct, res.Attempted, res.Failed, failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", w.name, traced, d.name, m, d.unit)
				}
				// A gated metric that reads 0 could never show a regression.
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				if acc := res.Metrics["trace.accounted_pct"].Value; math.Abs(acc-100) > 5 {
					t.Errorf("%s: self times account for %.1f%% of request time", w.name, acc)
				}
				if _, err := os.Stat(o.spans); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "journal-*")); len(left) != 0 {
		t.Errorf("journals left behind: %v", left)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "resnet-cnn", "--trace", "2"},
		{"--workload", "resnet-cnn", "--seconds", "0"},
		{"--workload", "resnet-cnn", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) exit %d, want 2", args, code)
		}
	}
}

func TestRepeatArgsDropSeedAndRepeat(t *testing.T) {
	got := repeatArgs([]string{"--workload", "gemm-zoo", "--seed", "4", "--repeat=3", "-seconds", "5", "-seed=2", "--repeat", "2"})
	want := []string{"--workload", "gemm-zoo", "-seconds", "5"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("repeatArgs = %q, want %q", got, want)
	}
}

// BENCHMARK.json at the repository root describes exactly the
// workloads and metrics this command runs and reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, command %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("json has %d/%d metrics, command reports %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
			t.Errorf("end-to-end %d: json %+v, command %+v", i, j, m)
		}
	}
	for i, m := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per-layer %d: json %+v, command %+v", i, j, m)
		}
	}
}
