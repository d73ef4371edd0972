package inference

import (
	"fmt"
	"math"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// Metric names emitted by the observed backend wrapper.
const (
	// MetricInferenceLayers counts executed layers by kind
	// (label kind="conv"|"fc"|"gemm", backend="...").
	MetricInferenceLayers = "albireo_inference_layers_total"
	// MetricLayerDivergence is the histogram of per-layer RMS
	// divergence between the wrapped backend and a digital reference,
	// recorded only when a reference backend is attached.
	MetricLayerDivergence = "albireo_inference_layer_divergence_rms"
)

// Observed wraps a Backend with layer-granular observability: every
// Conv and FullyConnected call is enclosed in a trace span carrying
// backend name and shapes, counted in the registry, and - when a
// reference backend is attached - scored for analog-vs-digital RMS
// divergence into a histogram. Telemetry is shape- and
// value-denominated only (no wall clock), so identical inputs always
// observe identically.
type Observed struct {
	Backend Backend
	// Ref, when non-nil, re-executes each layer on a reference backend
	// (typically Exact) and records the RMS divergence. The reference
	// output is discarded; the wrapped backend's output flows onward,
	// so the observed network still computes the analog result.
	Ref   Backend
	Reg   *obs.Registry
	Trace *obs.Trace
}

// Observe wraps b with the given instruments. Either may be nil.
func Observe(b Backend, reg *obs.Registry, trace *obs.Trace) *Observed {
	return &Observed{Backend: b, Reg: reg, Trace: trace}
}

// Name implements Backend.
func (o *Observed) Name() string { return o.Backend.Name() }

func (o *Observed) count(kind string) {
	o.Reg.Counter(MetricInferenceLayers,
		obs.L("kind", kind), obs.L("backend", o.Backend.Name())).Inc()
}

// Conv implements Backend.
func (o *Observed) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	o.count("conv")
	sp := o.Trace.StartSpan("inference/conv",
		obs.String("backend", o.Backend.Name()),
		obs.String("input", fmt.Sprintf("%dx%dx%d", a.Z, a.Y, a.X)),
		obs.String("kernels", fmt.Sprintf("%dx%dx%dx%d", w.M, w.Z, w.Y, w.X)))
	out := o.Backend.Conv(a, w, cfg, relu)
	if o.Ref != nil {
		ref := o.Ref.Conv(a, w, cfg, relu)
		d := rms(out.Data, ref.Data)
		o.Reg.Histogram(MetricLayerDivergence, obs.DefaultBuckets).Observe(d)
		sp.End(obs.String("divergence_rms", fmt.Sprintf("%.3e", d)))
		return out
	}
	sp.End()
	return out
}

// FullyConnected implements Backend.
func (o *Observed) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	o.count("fc")
	sp := o.Trace.StartSpan("inference/fc",
		obs.String("backend", o.Backend.Name()),
		obs.String("input", fmt.Sprintf("%dx%dx%d", a.Z, a.Y, a.X)),
		obs.String("kernels", fmt.Sprintf("%dx%dx%dx%d", w.M, w.Z, w.Y, w.X)))
	out := o.Backend.FullyConnected(a, w, relu)
	if o.Ref != nil {
		ref := o.Ref.FullyConnected(a, w, relu)
		d := rms(out, ref)
		o.Reg.Histogram(MetricLayerDivergence, obs.DefaultBuckets).Observe(d)
		sp.End(obs.String("divergence_rms", fmt.Sprintf("%.3e", d)))
		return out
	}
	sp.End()
	return out
}

// GEMM implements Backend.
func (o *Observed) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	o.count("gemm")
	sp := o.Trace.StartSpan("inference/gemm",
		obs.String("backend", o.Backend.Name()),
		obs.String("a", fmt.Sprintf("%dx%d", a.R, a.C)),
		obs.String("b", fmt.Sprintf("%dx%d", b.R, b.C)))
	out := o.Backend.GEMM(a, b, relu)
	if o.Ref != nil {
		ref := o.Ref.GEMM(a, b, relu)
		d := rms(out.Data, ref.Data)
		o.Reg.Histogram(MetricLayerDivergence, obs.DefaultBuckets).Observe(d)
		sp.End(obs.String("divergence_rms", fmt.Sprintf("%.3e", d)))
		return out
	}
	sp.End()
	return out
}

// rms returns the root-mean-square difference of two equal-length
// vectors (0 for degenerate input).
func rms(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a)))
}
