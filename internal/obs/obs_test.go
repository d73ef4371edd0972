package obs

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("albireo_events_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // monotone: negative adds ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("albireo_events_total"); again != c {
		t.Fatal("re-registration must return the same instrument")
	}
}

func TestLabeledInstrumentsAreDistinct(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a := r.Counter("adc_total", L("plcg", "0"))
	b := r.Counter("adc_total", L("plcg", "1"))
	if a == b {
		t.Fatal("different labels must yield different instruments")
	}
	a.Add(2)
	b.Add(3)
	s := r.Snapshot()
	if s.Counters[`adc_total{plcg="0"}`] != 2 || s.Counters[`adc_total{plcg="1"}`] != 3 {
		t.Fatalf("snapshot ids wrong: %v", s.Counters)
	}
	if got := s.SumCounters("adc_total"); got != 5 {
		t.Fatalf("SumCounters = %d, want 5", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a := r.Counter("x_total", L("b", "2"), L("a", "1"))
	b := r.Counter("x_total", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order must not change instrument identity")
	}
}

func TestNilSafety(t *testing.T) {
	t.Parallel()
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	c.Inc()
	c.Add(10)
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must be inert")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}

	var tr *Trace
	sp := tr.StartSpan("root")
	sp.Event(Mark, "m")
	sp.StartSpan("child").End()
	sp.End()
	if tr.Len() != 0 {
		t.Fatal("nil trace must be inert")
	}
}

func TestGaugeAddAndSet(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	g := r.Gauge("energy_joules")
	g.Set(1.5)
	g.Add(0.25)
	if got := g.Value(); got != 1.75 {
		t.Fatalf("gauge = %g, want 1.75", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	// Buckets: <=1 gets 0.5 and 1; <=10 gets 5; <=100 gets 50; +Inf gets 500.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 556.5 {
		t.Fatalf("count/sum = %d/%g", s.Count, s.Sum)
	}
}

func TestSnapshotDeltaAndEqual(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("steps_total")
	c.Add(3)
	before := r.Snapshot()
	c.Add(4)
	r.Gauge("level").Set(2)
	after := r.Snapshot()

	d := after.Delta(before)
	if d.Counters["steps_total"] != 4 {
		t.Fatalf("delta counter = %d, want 4", d.Counters["steps_total"])
	}
	if d.Gauges["level"] != 2 {
		t.Fatalf("delta gauge = %g, want 2 (gauges carry their level)", d.Gauges["level"])
	}
	if before.Equal(after) {
		t.Fatal("snapshots with different counts must not be Equal")
	}
	if !after.Equal(r.Snapshot()) {
		t.Fatal("unchanged registry must snapshot Equal")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("c_total", L("plcg", "0")).Add(7)
	r.Gauge("g").Set(1.25)
	r.Histogram("h", []float64{1}).Observe(0.5)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r.Snapshot()) {
		t.Fatalf("JSON round trip changed the snapshot: %s", raw)
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

func TestWritePrometheusFormat(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("adc_total", L("plcg", "0")).Add(11)
	r.Counter("adc_total", L("plcg", "1")).Add(13)
	r.Gauge("power_watts").Set(22.7)
	h := r.Histogram("div", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	types := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			types++
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	if types != 4 {
		t.Errorf("want 4 # TYPE lines (incl. the derived quantile family), got %d:\n%s", types, out)
	}
	for _, want := range []string{
		`adc_total{plcg="0"} 11`,
		`adc_total{plcg="1"} 13`,
		"# TYPE div histogram",
		`div_bucket{le="+Inf"} 2`,
		"div_count 2",
		"# TYPE div_quantile gauge",
		`div_quantile{q="0.5"} 0.01`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("exposition output must be deterministic")
	}
}

func TestNameSanitization(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("bad name-1").Inc()
	s := r.Snapshot()
	if _, ok := s.Counters["bad_name_1"]; !ok {
		t.Fatalf("name not sanitized: %v", s.Counters)
	}
}

func TestConcurrentCounters(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("racy_total")
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("racy_total").Value(); got != 8000 {
		t.Fatalf("concurrent count = %d, want 8000", got)
	}
}

func TestKindMismatchReturnsInertInstrument(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("x")
	g := r.Gauge("x") // already a counter: returns nil (inert) gauge
	g.Set(5)
	if g.Value() != 0 {
		t.Fatal("kind-mismatched lookup must be inert")
	}
}

// TestHistogramQuantile pins the bucket-interpolated quantile
// estimate against hand-computed values.
func TestHistogramQuantile(t *testing.T) {
	t.Parallel()
	var empty HistogramSnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}

	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	// Counts: le1=2, le2=1, le4=2, le8=4, +Inf=1; total 10.
	cases := []struct {
		q, want float64
	}{
		{0, 0},    // rank 0: lower edge of the first occupied bucket
		{0.2, 1},  // rank 2 exactly fills the first bucket
		{0.3, 2},  // rank 3 fills through the le2 bucket
		{0.5, 4},  // rank 5 fills through the le4 bucket
		{0.7, 6},  // rank 7: 2 into the 4-wide le8 bucket of count 4
		{0.9, 8},  // rank 9 fills through le8
		{0.99, 8}, // +Inf bucket clamps to the last finite bound
		{1, 8},    // likewise at the extreme
		{-1, 0},   // clamped below
		{2, 8},    // clamped above
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

// TestExpositionGolden pins the exact text exposition - TYPE lines,
// sample order, histogram _bucket/_sum/_count, and the derived
// quantile family - so any drift in the wire format is a conscious
// choice.
func TestExpositionGolden(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("req_total", L("worker", "0")).Add(3)
	r.Gauge("depth").Set(1.5)
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{1, 2, 3, 5} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE depth gauge
depth 1.5
# TYPE lat histogram
lat_bucket{le="1"} 1
lat_bucket{le="2"} 2
lat_bucket{le="4"} 3
lat_bucket{le="+Inf"} 4
lat_sum 11
lat_count 4
# TYPE lat_quantile gauge
lat_quantile{q="0.5"} 2
lat_quantile{q="0.9"} 4
lat_quantile{q="0.99"} 4
lat_quantile{q="0.999"} 4
# TYPE req_total counter
req_total{worker="0"} 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
