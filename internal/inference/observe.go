package inference

import (
	"fmt"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// MetricInferenceLayers counts the layers the observed backend
// wrapper executed, by kind (label kind="conv"|"fc"|"gemm",
// backend="...").
const MetricInferenceLayers = "albireo_inference_layers_total"

// Observed wraps a Backend with layer-granular observability: every
// Conv, FullyConnected and GEMM call is enclosed in a trace span
// carrying backend name and shapes, and counted in the registry.
// Telemetry is shape-denominated only (no wall clock), so identical
// inputs always observe identically. Per-layer divergence from a
// digital reference is the accuracy guard's (Guarded).
type Observed struct {
	Backend Backend
	Reg     *obs.Registry
	Trace   *obs.Trace
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
	sp.End()
	return out
}
