// Command benchmark is the whole-network benchmark of the Albireo
// simulator. One process sets up one workload, serves it for a fixed
// wall time, checks every output, and prints its metrics; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) serve half the time untraced and half with spans around
// every layer boundary, and report the per-layer metrics; the spans
// are written to --spans when the run ends. --repeat K runs K fresh
// processes on consecutive seeds and prints each metric's median and
// spread. See README.md for the workloads and metrics.
//
//	bash benchmark/run.sh --workload resnet-cnn --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"albireo/internal/core"
	"albireo/internal/fleet"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/obs"
)

// setupInfo is what one set-up reports besides its duration.
type setupInfo struct {
	bist   time.Duration
	digest string // hex sha256 of the warm-up outputs; "" when not deterministic
}

// phase is what one measured pass of a workload observed.
type phase struct {
	lat               []float64 // request latencies, ms
	norm              []float64 // each latency over its paired reference time
	ref               []float64 // reference kernel times, ms
	attempted, failed int
	throughput        float64 // completed requests per second
	late              int     // open-loop arrivals sent late
}

// instance is one set-up workload.
type instance interface {
	// measure serves requests for d; with a tracer it records spans.
	measure(d time.Duration, tr *tracer) phase
	// registry holds the activity counters of the chips and layers.
	registry() *obs.Registry
	// check runs the fidelity pass and the workload's invariants and
	// returns the per-layer relative errors.
	check() ([]float64, error)
	// hw is the modeled Albireo cost of one request.
	hw() (cycles, energyNJ float64)
	close() error
}

// workload is one benchmark workload.
type workload struct {
	name, why string
	// budget bounds the mean per-layer relative error of the fidelity
	// pass.
	budget float64
	setup  func(seed int64, workDir string) (instance, setupInfo, error)
}

// workloads lists the benchmark workloads; smoke shrinks the simulated
// networks for the package tests.
func workloads(smoke bool) []workload {
	return []workload{
		{
			name:   "resnet-cnn",
			why:    "ResNet18 topology at quarter width on one chip: dense receptive-field conv dominates, weight programs cached",
			budget: 0.75,
			setup:  setupCNN(resnetCNN(smoke)),
		},
		{
			name:   "mobilenet-dwpw",
			why:    "MobileNet v1 at half width: 28 small depthwise and pointwise layers, so per-call overhead is a large share",
			budget: 0.75,
			setup:  setupCNN(mobilenetDWPW(smoke)),
		},
		{
			name:   "gemm-zoo",
			why:    "encoder block and LSTM via nn on the signed two-pass GEMM path; no conv runs, fresh attention operands churn the cache",
			budget: 0.75,
			setup:  setupGEMM(gemmZooSpec(smoke)),
		},
		{
			name:   "serve-fleet",
			why:    "the albireo-serve pool with journal and linger ticker under 120/s Poisson load; batching and queueing set latency",
			budget: 0.75,
			setup:  setupFleet,
		},
	}
}

// metricDef describes one reported metric; bound is the share of the
// parent's median by which an end-to-end metric may worsen. README.md
// defines each metric.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics of untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ref_p50", "ref", "lower", 0.25},
	{"layer_rel_rms_pct", "%", "lower", 0.2},
	{"heap_live_mb", "MB", "lower", 0.1},
	{"hw_energy_nj", "nJ", "lower", 0.01},
}

// perLayer are the metrics of traced runs.
var perLayer = []metricDef{
	{name: "bench.request_ms", unit: "ms", better: "lower"},
	{name: "bench.throughput_per_s", unit: "1/s", better: "higher"},
	{name: "bench.latency_ms_p50", unit: "ms", better: "lower"},
	{name: "bench.latency_ms_p90", unit: "ms", better: "lower"},
	{name: "bench.latency_ms_p99", unit: "ms", better: "lower"},
	{name: "bench.ref_ms", unit: "ms", better: "lower"},
	{name: "bench.samples", unit: "count", better: "higher"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.allocs_per_req", unit: "count", better: "lower"},
	{name: "bench.gc_cpu_pct", unit: "%", better: "lower"},
	{name: "bench.gen_late_pct", unit: "%", better: "lower"},
	{name: "trace.accounted_pct", unit: "%", better: "higher"},
	{name: "bench.self_pct", unit: "%", better: "lower"},
	{name: "inference.self_pct", unit: "%", better: "lower"},
	{name: "nn.self_pct", unit: "%", better: "lower"},
	{name: "fleet.wait_pct", unit: "%", better: "lower"},
	{name: "fleet.exec_self_pct", unit: "%", better: "lower"},
	{name: "core.conv.pct", unit: "%", better: "lower"},
	{name: "core.depthwise.pct", unit: "%", better: "lower"},
	{name: "core.pointwise.pct", unit: "%", better: "lower"},
	{name: "core.fc.pct", unit: "%", better: "lower"},
	{name: "core.gemm.pct", unit: "%", better: "lower"},
	{name: "core.busy_pct", unit: "%", better: "higher"},
	{name: "core.ms", unit: "ms", better: "lower"},
	{name: "core.conv.calls", unit: "count", better: "lower"},
	{name: "core.depthwise.calls", unit: "count", better: "lower"},
	{name: "core.pointwise.calls", unit: "count", better: "lower"},
	{name: "core.fc.calls", unit: "count", better: "lower"},
	{name: "core.gemm.calls", unit: "count", better: "lower"},
	{name: "core.plcg_steps", unit: "count", better: "lower"},
	{name: "core.ns_per_step", unit: "ns", better: "lower"},
	{name: "perf.cycles", unit: "cycles", better: "lower"},
	{name: "health.bist_ms", unit: "ms", better: "lower"},
	{name: "fleet.admitted", unit: "count", better: "higher"},
	{name: "fleet.shed", unit: "count", better: "lower"},
	{name: "fleet.batch_size_mean", unit: "count", better: "higher"},
	{name: "inference.guard_checks", unit: "count", better: "lower"},
	{name: "inference.guard_fallbacks", unit: "count", better: "lower"},
	{name: "journal.appended", unit: "count", better: "higher"},
	{name: "journal.dropped", unit: "count", better: "lower"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	workDir  string
	repeat   int
	// smoke shrinks the simulated networks for the package tests.
	smoke bool
	// setups is how many times the run sets its workload up; setup_s
	// is their median.
	setups int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code: 0 for a correct
// run, 1 for a run that printed a result with a failed check, 2 when no
// result could be produced.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.repeat > 0 {
		if err := repeat(o, args, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	res, failures, err := runOnce(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	for _, f := range failures {
		fmt.Fprintln(stderr, "benchmark: check failed:", f)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	o := options{setups: 9}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the inputs, chip noise, and arrivals")
	fs.Float64Var(&o.seconds, "seconds", 20, "wall time of the measured passes")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass; 0 reports end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "file the traced pass's spans are written to (default .bench_build/spans-WORKLOAD.json)")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for the serving journal and default span files")
	fs.IntVar(&o.repeat, "repeat", 0, "run K fresh processes on seeds seed..seed+K-1 and print each metric's median and spread")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := findWorkload(o.workload, false); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	if o.spans == "" {
		o.spans = fmt.Sprintf("%s/spans-%s.json", o.workDir, o.workload)
	}
	return o, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(false) {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string, smoke bool) (workload, bool) {
	for _, w := range workloads(smoke) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOnce sets the workload up, measures it, checks it, and returns the
// result with a description of every failed check.
func runOnce(o options, log io.Writer) (result, []string, error) {
	w, _ := findWorkload(o.workload, o.smoke)
	su, err := setUp(w, o)
	if err != nil {
		return result{}, nil, err
	}
	inst := su.inst
	defer inst.close()
	heapMB := liveHeapMB()

	d := time.Duration(o.seconds * float64(time.Second))
	var ph, traced phase
	var tr tracedRun
	if o.trace {
		if ph, traced, tr, err = measureTraced(inst, d, o.spans); err != nil {
			return result{}, nil, err
		}
	} else {
		ph = inst.measure(d, nil)
	}

	failures := su.failures
	fail := func(format string, a ...any) { failures = append(failures, fmt.Sprintf(format, a...)) }
	errs, err := inst.check()
	if err != nil {
		fail("%v", err)
	}
	if err := inst.close(); err != nil {
		fail("close: %v", err)
	}
	fid := mean(errs)
	switch {
	case len(errs) == 0 && err == nil:
		fail("fidelity pass compared no layers")
	case !finite(errs):
		fail("fidelity pass produced a non-finite error")
	case fid > w.budget:
		fail("mean per-layer relative RMS error %.3f exceeds the %s budget %.3f", fid, w.name, w.budget)
	}
	res := result{Attempted: ph.attempted + traced.attempted, Failed: ph.failed + traced.failed}
	if res.Failed > 0 {
		fail("%d of %d requests failed", res.Failed, res.Attempted)
	}
	res.Correct = len(failures) == 0

	cycles, energy := inst.hw()
	if o.trace {
		res.Metrics = perLayerMetrics(ph, traced, tr, cycles, median(su.bist))
	} else {
		res.Metrics = metricSet{
			"setup_s":           median(su.times),
			"latency_ref_p50":   median(ph.norm),
			"layer_rel_rms_pct": 100 * fid,
			"heap_live_mb":      heapMB,
			"hw_energy_nj":      energy,
		}.withUnits()
	}
	report(log, o, w, res, su, ph, errs, tr.stats)
	return res, failures, nil
}

// setupRun is the outcome of a run's repeated set-ups.
type setupRun struct {
	inst        instance // the last set-up, kept for measuring
	times, bist []float64
	digest      string
	failures    []string
}

// setUp sets the workload up o.setups times, closing all but the last,
// and checks that every set-up's warm-up outputs are bit-identical.
func setUp(w workload, o options) (setupRun, error) {
	var su setupRun
	for k := 0; k < o.setups; k++ {
		t0 := time.Now()
		inst, info, err := w.setup(o.seed, o.workDir)
		if err != nil {
			return su, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		su.times = append(su.times, time.Since(t0).Seconds())
		su.bist = append(su.bist, float64(info.bist)/float64(time.Millisecond))
		if k == 0 {
			su.digest = info.digest
		} else if info.digest != su.digest {
			su.failures = append(su.failures, fmt.Sprintf("set-up %d warm-up digest %s differs from set-up 0's %s: the simulator is not deterministic", k, info.digest, su.digest))
		}
		if k == o.setups-1 {
			su.inst = inst
		} else if err := inst.close(); err != nil {
			return su, fmt.Errorf("%s set-up %d close: %w", w.name, k, err)
		}
	}
	return su, nil
}

// liveHeapMB is the live heap once set up: what the system holds to
// serve - networks, chips, warmed caches, registries. It is measured
// before the timed pass because afterwards the bounded program caches
// hold a run-length-dependent mix of entries.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tracedRun is what a traced run measures besides its two phases.
type tracedRun struct {
	stats         layerStats
	delta         obs.Snapshot // activity counters over the traced half
	allocs, gcPct float64      // over the untraced half
}

// measureTraced serves half of d untraced and half traced, and writes
// the spans to spansPath.
func measureTraced(inst instance, d time.Duration, spansPath string) (untraced, traced phase, tr tracedRun, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	untraced = inst.measure(d/2, nil)
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&m1)
	tr.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(untraced.attempted)
	if cpu1 > cpu0 {
		tr.gcPct = 100 * (gc1 - gc0) / (cpu1 - cpu0)
	}
	before := inst.registry().Snapshot()
	t := newTracer()
	traced = inst.measure(d/2, t)
	tr.delta = inst.registry().Snapshot().Delta(before)
	tr.stats = accountSpans(t.snapshot())
	if err := t.write(spansPath); err != nil {
		return untraced, traced, tr, fmt.Errorf("write spans: %w", err)
	}
	return untraced, traced, tr, nil
}

// perLayerMetrics derives the per-layer metrics of a traced run.
func perLayerMetrics(untraced, traced phase, tr tracedRun, cycles, bistMS float64) map[string]metric {
	st := tr.stats
	n := float64(max(st.requests, 1))
	wall := float64(max(st.wall, 1))
	self := st.selfByLayer()
	pct := func(layer string) float64 { return 100 * float64(self[layer]) / wall }
	var coreNS, accounted float64
	for name, t := range self {
		accounted += float64(t)
		if strings.HasPrefix(name, "core/") {
			coreNS += float64(t)
		}
	}
	steps := float64(tr.delta.SumCounters(core.MetricPLCGSteps))
	batches := tr.delta.Histograms[fleet.MetricBatchSize]
	count := func(name string) float64 { return float64(tr.delta.Counters[name]) }
	m := metricSet{
		"bench.request_ms":          wall / n / float64(time.Millisecond),
		"bench.throughput_per_s":    untraced.throughput,
		"bench.latency_ms_p50":      percentile(untraced.lat, 50),
		"bench.latency_ms_p90":      percentile(untraced.lat, 90),
		"bench.latency_ms_p99":      percentile(untraced.lat, 99),
		"bench.ref_ms":              median(untraced.ref),
		"bench.samples":             float64(st.requests),
		"bench.trace_overhead_pct":  100 * (mean(traced.lat)/mean(untraced.lat) - 1),
		"bench.allocs_per_req":      tr.allocs,
		"bench.gc_cpu_pct":          tr.gcPct,
		"bench.gen_late_pct":        100 * float64(untraced.late) / float64(untraced.attempted),
		"trace.accounted_pct":       100 * accounted / wall,
		"bench.self_pct":            pct("bench/request"),
		"inference.self_pct":        pct("inference/run"),
		"nn.self_pct":               pct("nn"),
		"fleet.wait_pct":            pct("fleet/op"),
		"fleet.exec_self_pct":       pct("fleet/exec"),
		"core.busy_pct":             100 * coreNS / wall,
		"core.ms":                   coreNS / n / float64(time.Millisecond),
		"core.plcg_steps":           steps / n,
		"core.ns_per_step":          coreNS / math.Max(steps, 1),
		"perf.cycles":               cycles,
		"health.bist_ms":            bistMS,
		"fleet.admitted":            count(fleet.MetricAdmitted),
		"fleet.shed":                count(fleet.MetricShed),
		"fleet.batch_size_mean":     batches.Sum / math.Max(float64(batches.Count), 1),
		"inference.guard_checks":    count(inference.MetricGuardChecks),
		"inference.guard_fallbacks": count(inference.MetricGuardFallbacks),
		"journal.appended":          count(journal.MetricAppended),
		"journal.dropped":           count(journal.MetricBackpressure),
	}
	for _, k := range []string{"conv", "depthwise", "pointwise", "fc", "gemm"} {
		m["core."+k+".pct"] = pct("core/" + k)
		m["core."+k+".calls"] = float64(st.calls["core/"+k]) / n
	}
	return m.withUnits()
}

// metricSet is a run's metric values by name.
type metricSet map[string]float64

// withUnits attaches each metric's catalogued unit.
func (ms metricSet) withUnits() map[string]metric {
	units := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	out := make(map[string]metric, len(ms))
	for name, v := range ms {
		out[name] = metric{Value: v, Unit: units[name]}
	}
	return out
}

// gcCPU reads the process's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// report prints the human-readable account of a run.
func report(log io.Writer, o options, w workload, res result, su setupRun, ph phase, errs []float64, stats layerStats) {
	fmt.Fprintf(log, "workload %s  seed %d  %.0fs  trace %v  set-ups %d\n", w.name, o.seed, o.seconds, o.trace, len(su.times))
	if su.digest != "" {
		fmt.Fprintf(log, "output_digest %s (warm-up outputs of every set-up)\n", su.digest)
	}
	fmt.Fprintf(log, "requests %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	if n := len(ph.lat); n > 0 {
		tail := tailPercentile(n)
		fmt.Fprintf(log, "untraced latency: %d samples, %.3f/s, p50 %.3f ms, p90 %.3f ms (%d beyond), p%g %.3f ms (highest percentile with 10 beyond)\n",
			n, ph.throughput, percentile(ph.lat, 50), percentile(ph.lat, 90), samplesBeyond(n, 90), tail, percentile(ph.lat, tail))
		fmt.Fprintf(log, "reference kernel: %d samples, p50 %.4f ms; latency over reference p50 %.3f, p90 %.3f\n",
			len(ph.ref), median(ph.ref), median(ph.norm), percentile(ph.norm, 90))
	}
	fmt.Fprintf(log, "fidelity: %d layer calls, mean rel-RMS %.4f, max %.4f, budget %.3f\n", len(errs), mean(errs), maxOf(errs), w.budget)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(log, "  %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if o.trace {
		fmt.Fprintf(log, "self time by span over %d traced requests (%.1f ms mean):\n", stats.requests,
			float64(stats.wall)/float64(max(stats.requests, 1))/float64(time.Millisecond))
		spanNames := make([]string, 0, len(stats.self))
		for name := range stats.self {
			spanNames = append(spanNames, name)
		}
		sort.Slice(spanNames, func(i, j int) bool { return stats.self[spanNames[i]] > stats.self[spanNames[j]] })
		for _, name := range spanNames {
			fmt.Fprintf(log, "  %-16s %8d calls %12.3f ms self\n", name, stats.calls[name], float64(stats.self[name])/float64(time.Millisecond))
		}
	}
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// repeat runs the workload in k fresh processes on consecutive seeds
// and prints each metric's median, quartiles, and relative spread.
func repeat(o options, args []string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	base := repeatArgs(args)
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < o.repeat; k++ {
		seed := o.seed + int64(k)
		cmd := exec.Command(exe, append(base, "--seed", strconv.FormatInt(seed, 10))...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %v (exit: %v)", seed, err, runErr)
		}
		if !res.Correct || runErr != nil {
			return fmt.Errorf("seed %d: run failed its checks (exit: %v)", seed, runErr)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d\n", o.workload, o.repeat, o.seed, o.seed+int64(o.repeat)-1)
	fmt.Fprintf(stdout, "%-28s %14s %14s %14s %9s\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if math.Abs(q2) > 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		fmt.Fprintf(stdout, "%-28s %14.4f %14.4f %14.4f %8.2f%% %s\n", name, q1, q2, q3, 100*spread, units[name])
	}
	return nil
}

// repeatArgs drops --seed and --repeat, with their values, from the
// arguments of a --repeat run.
func repeatArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		name, _, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if name == "repeat" || name == "seed" {
			if !hasValue {
				i++
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// lastResult parses the JSON result on the last line of a run's
// standard output.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if last == "" {
		return result{}, errors.New("no result line")
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
