// Package obs is the simulator's observability layer: a registry of
// counters, gauges, and histograms plus a typed span trace, built on
// the standard library only.
//
// The paper's whole evaluation is an accounting argument - Table III
// prices device activity, Figure 8 compares latency/energy/EDP, and
// Section III-B's "no partial sum writes back to memory" is a claim
// about SRAM traffic. This package lets the simulator *observe* that
// activity while it computes real layers (MZM reprogramming events,
// MRR switch events, balanced-PD reads, ADC conversions, SRAM bytes)
// instead of only deriving it from closed-form counts, so the energy
// model can be validated against what the modeled chip actually did.
//
// Contract:
//
//   - Deterministic: simulation-side instruments are cycle- or
//     event-denominated. Nothing in this package reads the wall clock
//     except WallClock, the injected Clock implementation that lives
//     only at the cmd boundary. Two runs with the same seed produce
//     bit-identical snapshots; Conv produces bit-identical counter
//     totals on any number of lanes because counter addition
//     commutes.
//   - Nil-safe and off by default: every method on a nil *Registry,
//     nil *Trace, nil *Span, nil *Counter, nil *Gauge, and nil
//     *Histogram is a no-op, so instrumented hot paths cost one nil
//     check when observation is not attached.
//   - Race-safe: counters and gauges are atomics, histograms and the
//     trace are mutex-protected, so the chip's kernel lanes may
//     record freely.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" dimension of a metric (the Prometheus
// label model). Metrics with the same name but different labels are
// distinct instruments that share one # TYPE block on exposition.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter or n <= 0
// (counters are monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float instrument that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates onto the gauge value (CAS loop). No-op on nil.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a bucketed distribution instrument with fixed upper
// bounds (ascending), an implicit +Inf bucket, and a running sum.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	count  int64
}

// Observe records one sample. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// snapshotLocked copies the histogram state; callers hold no lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// DefaultBuckets is the bucket ladder used when a histogram is
// registered with no explicit bounds: a decade ladder suited to
// dimensionless ratios (divergence, utilization).
var DefaultBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1}

// LatencyBuckets is the bucket ladder for tick-denominated latency
// histograms (the fleet's per-stage and end-to-end decomposition).
// The near-geometric spacing keeps relative error under ~25% per
// bucket across four decades, fine enough that a p999 estimate from
// Quantile lands in the right bucket instead of saturating at +Inf
// for any tail a bounded admission queue can produce.
var LatencyBuckets = []float64{
	1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96,
	128, 160, 192, 256, 320, 384, 512, 640, 768, 1024, 1280, 1536,
	2048, 2560, 3072, 4096, 5120, 6144, 8192, 10240, 12288, 16384,
}

// entry is one registered instrument with its identity split into the
// metric name and its labels (both needed for exposition).
type entry struct {
	name   string
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named instruments. Lookup is get-or-create: asking
// for the same (name, labels) twice returns the same instrument, so
// callers may resolve instruments eagerly and cache the pointers out
// of hot paths.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry // keyed by canonical id
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// sanitizeName coerces a metric name into the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]* by replacing invalid runes with '_'.
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the text exposition
// format: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// metricID renders the canonical identity of an instrument:
// name{k1="v1",k2="v2"} with label keys sorted.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", sanitizeName(l.Key), escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the entry for (name, labels), creating it with mk on
// first use.
func (r *Registry) lookup(name string, labels []Label, mk func(*entry)) *entry {
	name = sanitizeName(name)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		e = &entry{name: name, labels: append([]Label(nil), labels...)}
		mk(e)
		r.entries[id] = e
	}
	return e
}

// Counter returns the counter registered under (name, labels),
// creating it on first use. Nil registries return a nil (no-op)
// counter. A name already registered as another kind returns nil.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, func(e *entry) { e.c = &Counter{} }).c
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, func(e *entry) { e.g = &Gauge{} }).g
}

// Histogram returns the histogram registered under (name, labels)
// with the given ascending upper bounds (DefaultBuckets when empty).
// Bounds are fixed by the first registration.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	return r.lookup(name, labels, func(e *entry) {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		e.h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
	}).h
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra
	// trailing element for the +Inf bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Quantile estimates the q-quantile of the recorded distribution by
// linear interpolation inside the bucket containing the target rank -
// the same estimate Prometheus's histogram_quantile computes server
// side, so the exposed values and a scraper's own math agree. The
// first bucket interpolates from a lower edge of 0 (latencies and
// counts are non-negative); ranks that land in the +Inf bucket clamp
// to the highest finite bound, since no upper edge exists to
// interpolate toward. q outside [0,1] is clamped. An empty histogram
// reports 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Bounds) == 0 || len(h.Counts) != len(h.Bounds)+1 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, bound := range h.Bounds {
		c := float64(h.Counts[i])
		if c > 0 && cum+c >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.Bounds[i-1]
			}
			if rank <= cum {
				return lower
			}
			return lower + (bound-lower)*(rank-cum)/c
		}
		cum += c
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a frozen, comparable view of a registry, keyed by
// canonical metric id.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. Nil registries return an empty (but
// non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, e := range r.entries {
		switch {
		case e.c != nil:
			s.Counters[id] = e.c.Value()
		case e.g != nil:
			s.Gauges[id] = e.g.Value()
		case e.h != nil:
			s.Histograms[id] = e.h.snapshot()
		}
	}
	return s
}

// Delta returns the change from prev to s: counters and histogram
// counts subtract (ids missing from prev count from zero); gauges
// keep their current value (they are levels, not totals).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for id, v := range s.Counters {
		d.Counters[id] = v - prev.Counters[id]
	}
	for id, v := range s.Gauges {
		d.Gauges[id] = v
	}
	for id, h := range s.Histograms {
		p, ok := prev.Histograms[id]
		dh := HistogramSnapshot{
			Bounds: append([]float64(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			Sum:    h.Sum,
			Count:  h.Count,
		}
		if ok && len(p.Counts) == len(h.Counts) {
			for i := range dh.Counts {
				dh.Counts[i] -= p.Counts[i]
			}
			dh.Sum -= p.Sum
			dh.Count -= p.Count
		}
		d.Histograms[id] = dh
	}
	return d
}

// Equal reports whether two snapshots are bit-identical. Floats
// compare by their IEEE-754 bit patterns, which is the right notion
// for a determinism invariant (and keeps the float-equality lint
// honest).
//
//lint:ignore unreachable TestLaneBitIdentity and TestArtifactByteIdentical compare snapshots with it
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Counters) != len(o.Counters) || len(s.Gauges) != len(o.Gauges) ||
		len(s.Histograms) != len(o.Histograms) {
		return false
	}
	for id, v := range s.Counters {
		ov, ok := o.Counters[id]
		if !ok || v != ov {
			return false
		}
	}
	for id, v := range s.Gauges {
		ov, ok := o.Gauges[id]
		if !ok || math.Float64bits(v) != math.Float64bits(ov) {
			return false
		}
	}
	for id, h := range s.Histograms {
		oh, ok := o.Histograms[id]
		if !ok || !h.equal(oh) {
			return false
		}
	}
	return true
}

//lint:ignore unreachable TestLaneBitIdentity and TestArtifactByteIdentical compare snapshots with it
func (h HistogramSnapshot) equal(o HistogramSnapshot) bool {
	if h.Count != o.Count || math.Float64bits(h.Sum) != math.Float64bits(o.Sum) ||
		len(h.Bounds) != len(o.Bounds) || len(h.Counts) != len(o.Counts) {
		return false
	}
	for i := range h.Bounds {
		if math.Float64bits(h.Bounds[i]) != math.Float64bits(o.Bounds[i]) {
			return false
		}
	}
	for i := range h.Counts {
		if h.Counts[i] != o.Counts[i] {
			return false
		}
	}
	return true
}

// SumCounters sums every counter in the snapshot whose metric name is
// name, across all label sets - the "total over all PLCGs" helper.
func (s Snapshot) SumCounters(name string) int64 {
	var total int64
	prefix := name + "{"
	for id, v := range s.Counters {
		if id == name || strings.HasPrefix(id, prefix) {
			total += v
		}
	}
	return total
}

// promSample pairs one rendered sample's canonical id with its entry.
type promSample struct {
	id string
	e  *entry
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): a # TYPE line per metric name
// followed by its samples, sorted by name then label id so the output
// is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	byName := make(map[string][]promSample)
	var names []string
	for id, e := range r.entries {
		if _, ok := byName[e.name]; !ok {
			names = append(names, e.name)
		}
		//lint:ignore map-iteration-determinism per-name buckets are sorted by id before rendering, neutralizing map order
		byName[e.name] = append(byName[e.name], promSample{id: id, e: e})
	}
	r.mu.Unlock()

	sort.Strings(names)
	for _, name := range names {
		samples := byName[name]
		sort.Slice(samples, func(i, j int) bool { return samples[i].id < samples[j].id })
		kind := "counter"
		switch {
		case samples[0].e.g != nil:
			kind = "gauge"
		case samples[0].e.h != nil:
			kind = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind); err != nil {
			return err
		}
		for _, sm := range samples {
			var err error
			switch {
			case sm.e.c != nil:
				_, err = fmt.Fprintf(w, "%s %d\n", sm.id, sm.e.c.Value())
			case sm.e.g != nil:
				_, err = fmt.Fprintf(w, "%s %s\n", sm.id, formatFloat(sm.e.g.Value()))
			case sm.e.h != nil:
				err = writePrometheusHistogram(w, sm.e)
			}
			if err != nil {
				return err
			}
		}
		// Histogram families carry a derived companion family of
		// precomputed quantile gauges: _bucket/_sum/_count stay exactly
		// the standard histogram exposition (scrapers aggregate those
		// across instances), while <name>_quantile{q="..."} gives a
		// human or a quantile-SLO gate the tail without re-deriving it.
		if samples[0].e.h != nil {
			if err := writeQuantileFamily(w, name, samples); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExpositionQuantiles are the quantiles rendered for every histogram
// as its derived _quantile gauge family.
var ExpositionQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// writeQuantileFamily renders the derived quantile gauges for one
// histogram family: one sample per (label set, quantile).
func writeQuantileFamily(w io.Writer, name string, samples []promSample) error {
	qname := name + "_quantile"
	if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", qname); err != nil {
		return err
	}
	for _, sm := range samples {
		snap := sm.e.h.snapshot()
		for _, q := range ExpositionQuantiles {
			labels := append(append([]Label(nil), sm.e.labels...), Label{Key: "q", Value: formatFloat(q)})
			if _, err := fmt.Fprintf(w, "%s %s\n", metricID(qname, labels), formatFloat(snap.Quantile(q))); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePrometheusHistogram renders one histogram as cumulative
// _bucket samples plus _sum and _count.
func writePrometheusHistogram(w io.Writer, e *entry) error {
	snap := e.h.snapshot()
	var cum int64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		labels := append(append([]Label(nil), e.labels...), Label{Key: "le", Value: formatFloat(bound)})
		if _, err := fmt.Fprintf(w, "%s %d\n", metricID(e.name+"_bucket", labels), cum); err != nil {
			return err
		}
	}
	cum += snap.Counts[len(snap.Counts)-1]
	infLabels := append(append([]Label(nil), e.labels...), Label{Key: "le", Value: "+Inf"})
	if _, err := fmt.Fprintf(w, "%s %d\n", metricID(e.name+"_bucket", infLabels), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", metricID(e.name+"_sum", e.labels), formatFloat(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", metricID(e.name+"_count", e.labels), snap.Count)
	return err
}

// formatFloat renders a float for the text format: shortest
// round-trip representation, with the special values Prometheus
// expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.ToLower(fmt.Sprintf("%g", v))
}
