package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"albireo/internal/inference"
	"albireo/internal/tensor"
)

// span is one timed call across a layer boundary. Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a request root
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced pass in memory; write saves
// them when the run ends.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o666)
}

// scope is one goroutine's place in the trace: the request it works
// for and its stack of open spans. A nil scope times nothing, so
// untraced code paths call span unconditionally.
type scope struct {
	tr    *tracer
	req   int64
	stack []int64
}

// span runs f inside a span named name, child of the innermost open
// span of the scope.
func (s *scope) span(name string, f func()) {
	if s == nil {
		f()
		return
	}
	sp := span{Name: name, ID: s.tr.ids.Add(1), Req: s.req}
	if n := len(s.stack); n > 0 {
		sp.Parent = s.stack[n-1]
	}
	s.stack = append(s.stack, sp.ID)
	start := time.Now()
	f()
	end := time.Now()
	s.stack = s.stack[:len(s.stack)-1]
	sp.Start, sp.End = int64(start.Sub(s.tr.t0)), int64(end.Sub(s.tr.t0))
	s.tr.record(sp)
}

// fidelity collects the per-layer relative RMS error of the analog
// chip against the exact digital reference.
type fidelity struct {
	mu   sync.Mutex
	errs []float64
}

func (f *fidelity) add(out, ref []float64) {
	e := relRMS(out, ref)
	f.mu.Lock()
	f.errs = append(f.errs, e)
	f.mu.Unlock()
}

func (f *fidelity) values() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64(nil), f.errs...)
}

// relRMS is RMS(out-ref)/RMS(ref), the scale-free error the accuracy
// guard also uses; against an all-zero reference it is the absolute
// RMS of out.
func relRMS(out, ref []float64) float64 {
	var d, r float64
	for i := range ref {
		d += (out[i] - ref[i]) * (out[i] - ref[i])
		r += ref[i] * ref[i]
	}
	if r > 0 {
		return math.Sqrt(d / r)
	}
	return math.Sqrt(d / float64(max(len(ref), 1)))
}

// coreProbe wraps the analog chip backend. With a scope it times each
// chip call as a core/<mapping> span; with a fidelity collector it
// also runs the exact reference on the same inputs and records the
// layer's error. Both are off by default, leaving one pointer check
// per layer call.
type coreProbe struct {
	inner inference.Backend
	// sc is the trace scope of the goroutine driving the backend; only
	// that goroutine reads or writes it.
	sc  *scope
	fid atomic.Pointer[fidelity]
}

// convMapping names the chip mapping inference.Analog routes a
// convolution to.
func convMapping(w *tensor.Kernels, cfg tensor.ConvConfig) string {
	switch {
	case cfg.Depthwise:
		return "core/depthwise"
	case cfg.Groups <= 1 && w.Y == 1 && w.X == 1 && cfg.Stride <= 1 && cfg.Pad == 0:
		return "core/pointwise"
	default:
		return "core/conv"
	}
}

func (p *coreProbe) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	var out *tensor.Volume
	p.sc.span(convMapping(w, cfg), func() { out = p.inner.Conv(a, w, cfg, relu) })
	if f := p.fid.Load(); f != nil {
		f.add(out.Data, inference.Exact{}.Conv(a, w, cfg, relu).Data)
	}
	return out
}

func (p *coreProbe) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	var out []float64
	p.sc.span("core/fc", func() { out = p.inner.FullyConnected(a, w, relu) })
	if f := p.fid.Load(); f != nil {
		f.add(out, inference.Exact{}.FullyConnected(a, w, relu))
	}
	return out
}

func (p *coreProbe) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	var out *tensor.Matrix
	p.sc.span("core/gemm", func() { out = p.inner.GEMM(a, b, relu) })
	if f := p.fid.Load(); f != nil {
		f.add(out.Data, inference.Exact{}.GEMM(a, b, relu).Data)
	}
	return out
}

func (p *coreProbe) Name() string { return p.inner.Name() }

// layerStats is the time accounting of a traced pass.
type layerStats struct {
	requests int
	// wall is the summed duration of the request spans.
	wall time.Duration
	// self is each span name's summed self time: its duration minus
	// the part its child spans cover.
	self map[string]time.Duration
	// calls counts spans by name.
	calls map[string]int
}

// accountSpans computes self times. Children of one span may overlap
// (a request's fleet ops wait while another runs), so the covered part
// is the union of the children's intervals clipped to the parent.
func accountSpans(spans []span) layerStats {
	st := layerStats{self: map[string]time.Duration{}, calls: map[string]int{}}
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			st.requests++
			st.wall += time.Duration(s.End - s.Start)
		}
		st.calls[s.Name]++
		st.self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return st
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// selfByLayer folds span self times into the layer names the metrics
// use: core/<mapping> stays per mapping, every nn/<block> is nn.
func (st layerStats) selfByLayer() map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, d := range st.self {
		if strings.HasPrefix(name, "nn/") {
			name = "nn"
		}
		out[name] += d
	}
	return out
}
