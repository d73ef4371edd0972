package inference

import (
	"fmt"
	"math"
	"sync/atomic"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// Metric names emitted by the guarded backend.
const (
	// MetricGuardChecks counts layers whose divergence was sampled
	// against the reference backend.
	MetricGuardChecks = "albireo_inference_guard_checks_total"
	// MetricGuardFallbacks counts layers rerouted to the reference
	// because their divergence exceeded the budget.
	MetricGuardFallbacks = "albireo_inference_guard_fallbacks_total"
	// MetricLayerDivergence is the histogram of every checked layer's
	// relative RMS divergence from the reference (the quantity the
	// budget bounds).
	MetricLayerDivergence = "albireo_inference_layer_divergence_rms"
)

// Guarded is an accuracy-guarded backend: layers execute on the analog
// backend, and every layer is re-executed on a digital reference and
// scored for RMS divergence. A layer over budget returns the
// reference output instead - the network keeps computing correct
// activations while the analog fabric degrades, at the energy cost of
// the digital recompute. This is the last line of graceful
// degradation: BIST + quarantine remove known-bad units, and the guard
// catches whatever silent corruption remains.
//
// The guard is deterministic: it uses no clocks and no randomness, and
// the analog backend still executes every layer (its noise streams
// advance identically whether or not the guard falls back), so guarded
// and unguarded runs of the same inputs stay reproducible.
type Guarded struct {
	// Backend executes every layer (typically Analog).
	Backend Backend
	// Ref is the digital reference (typically Exact) used for the
	// divergence checks and as the fallback output.
	Ref Backend
	// Budget is the maximum tolerated per-layer relative divergence:
	// RMS(out - ref) / RMS(ref), a scale-free fraction (layer
	// activations grow with fan-in, so an absolute budget would mean
	// something different at every depth). At or under budget the
	// analog output flows onward; over it the reference output does.
	// Layers with an all-zero reference are scored on absolute RMS.
	Budget float64
	// FallbackHook, when non-nil, is called with the layer-op kind
	// ("conv", "fc", or "gemm") each time a layer falls back to the
	// reference.
	// The serving front end uses it to journal guarded-fallback events
	// per worker. Set before serving begins; it is read without
	// synchronization.
	FallbackHook func(kind string)

	// Registry handles, resolved once by Instrument (nil: inert).
	checksMetric, fallbacksMetric *obs.Counter
	divergence                    *obs.Histogram
	trace                         *obs.Trace
	checks                        atomic.Int64
	fallbacks                     atomic.Int64
}

// Guard wraps an analog backend with an accuracy guard against ref.
func Guard(b, ref Backend, budget float64) *Guarded {
	return &Guarded{Backend: b, Ref: ref, Budget: budget}
}

// Instrument attaches an observability registry and/or trace and
// returns the backend for chaining. Either may be nil.
func (g *Guarded) Instrument(reg *obs.Registry, trace *obs.Trace) *Guarded {
	g.checksMetric = reg.Counter(MetricGuardChecks)
	g.fallbacksMetric = reg.Counter(MetricGuardFallbacks)
	g.divergence = reg.Histogram(MetricLayerDivergence, obs.DefaultBuckets)
	g.trace = trace
	return g
}

// Name implements Backend.
func (g *Guarded) Name() string { return "guarded(" + g.Backend.Name() + ")" }

// Fallbacks returns how many layers have been rerouted to the
// reference so far.
func (g *Guarded) Fallbacks() int64 { return g.fallbacks.Load() }

// Checks returns how many layers have been divergence-checked.
func (g *Guarded) Checks() int64 { return g.checks.Load() }

// guard scores the analog output against the reference and picks the
// survivor. Both slices must be equal length.
func (g *Guarded) guard(kind string, out, ref []float64) bool {
	g.checks.Add(1)
	g.checksMetric.Inc()
	d := rms(out, ref)
	if scale := rmsMagnitude(ref); scale > 0 {
		d /= scale
	}
	g.divergence.Observe(d)
	if d <= g.Budget {
		return false
	}
	g.fallbacks.Add(1)
	g.fallbacksMetric.Inc()
	if g.FallbackHook != nil {
		g.FallbackHook(kind)
	}
	if g.trace != nil {
		sp := g.trace.StartSpan("inference/guard")
		sp.Event(obs.BackendFallback, kind,
			obs.String("backend", g.Backend.Name()),
			obs.String("divergence_rms", fmt.Sprintf("%.3e", d)),
			obs.String("budget", fmt.Sprintf("%.3e", g.Budget)))
		sp.End()
	}
	return true
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

// rmsMagnitude returns the root-mean-square of a vector (its signal
// scale), 0 for empty input: rms against a zero vector, bit for bit,
// since x - 0 is x.
func rmsMagnitude(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum / float64(len(v)))
}

// Conv implements Backend.
func (g *Guarded) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	out := g.Backend.Conv(a, w, cfg, relu)
	ref := g.Ref.Conv(a, w, cfg, relu)
	if g.guard("conv", out.Data, ref.Data) {
		return ref
	}
	return out
}

// FullyConnected implements Backend.
func (g *Guarded) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	out := g.Backend.FullyConnected(a, w, relu)
	ref := g.Ref.FullyConnected(a, w, relu)
	if g.guard("fc", out, ref) {
		return ref
	}
	return out
}

// GEMM implements Backend.
func (g *Guarded) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	out := g.Backend.GEMM(a, b, relu)
	ref := g.Ref.GEMM(a, b, relu)
	if g.guard("gemm", out.Data, ref.Data) {
		return ref
	}
	return out
}
