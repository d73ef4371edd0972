// Package inference runs whole CNNs end-to-end on interchangeable
// backends: an exact digital reference and the Albireo analog chip.
// It is the integration layer that demonstrates the functional
// simulator computing real multi-layer networks - convolutions,
// depthwise-separable blocks, residual blocks, pooling, and
// classifiers - through the impaired optical pipeline, and quantifies
// the end-to-end cost of analog computation (top-1 agreement, logit
// correlation).
package inference

import (
	"fmt"
	"math"

	"albireo/internal/core"
	"albireo/internal/tensor"
)

// Backend executes the compute layers. Pooling and residual addition
// are digital on every backend (they ride the aggregation path).
type Backend interface {
	// Conv runs a (possibly grouped or depthwise) convolution.
	Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume
	// FullyConnected runs a classifier layer over the whole volume.
	FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64
	// GEMM runs a dense matrix product (the MLP/LSTM/attention
	// workload primitive).
	GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix
	// Name identifies the backend in reports.
	Name() string
}

// Exact is the digital reference backend.
type Exact struct{}

// Conv implements Backend.
func (Exact) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	out := tensor.Conv(a, w, cfg)
	if relu {
		tensor.ReLU(out)
	}
	return out
}

// FullyConnected implements Backend.
func (Exact) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	out := tensor.FullyConnected(a, w)
	if relu {
		tensor.ReLUVec(out)
	}
	return out
}

// GEMM implements Backend.
func (Exact) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	out := tensor.MatMul(a, b)
	if relu {
		tensor.ReLUMat(out)
	}
	return out
}

// Name implements Backend.
func (Exact) Name() string { return "exact" }

// Analog executes layers on the Albireo functional chip.
type Analog struct {
	Chip *core.Chip
}

// NewAnalog builds an analog backend for a configuration.
func NewAnalog(cfg core.Config) Analog {
	return Analog{Chip: core.NewChip(cfg)}
}

// Conv implements Backend. The chip picks the mapping: a dense layer
// whose live taps leave waveguides empty (every 1x1 kernel among them)
// runs on the pointwise layout, everything else on the receptive-field
// layout.
func (b Analog) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	return b.Chip.Conv(a, w, cfg, relu)
}

// FullyConnected implements Backend.
func (b Analog) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	return b.Chip.FullyConnected(a, w, relu)
}

// GEMM implements Backend via the chip's tiled GEMM engine.
func (b Analog) GEMM(x, w *tensor.Matrix, relu bool) *tensor.Matrix {
	return b.Chip.GEMM(x, w, relu)
}

// Name implements Backend.
func (b Analog) Name() string { return "albireo-" + b.Chip.Config().Estimate.String() }

// Op is one step of a network.
type Op interface {
	apply(b Backend, x *tensor.Volume) *tensor.Volume
}

// ConvOp is a convolution step (dense, grouped, depthwise, or 1x1).
type ConvOp struct {
	Kernels *tensor.Kernels
	Cfg     tensor.ConvConfig
	ReLU    bool
}

func (o ConvOp) apply(b Backend, x *tensor.Volume) *tensor.Volume {
	return b.Conv(x, o.Kernels, o.Cfg, o.ReLU)
}

// PoolOp is a pooling step (digital on every backend).
type PoolOp struct {
	Max            bool
	Window, Stride int
}

func (o PoolOp) apply(_ Backend, x *tensor.Volume) *tensor.Volume {
	if o.Max {
		return tensor.MaxPool(x, o.Window, o.Stride)
	}
	return tensor.AvgPool(x, o.Window, o.Stride)
}

// ResidualOp runs a body and adds the block input (a ResNet basic
// block shape), applying ReLU to the sum. Shapes must match; use a
// strided body only with a matching Shortcut.
type ResidualOp struct {
	Body []Op
	// Shortcut optionally projects the block input (1x1 conv) before
	// the addition; nil means identity.
	Shortcut Op
}

func (o ResidualOp) apply(b Backend, x *tensor.Volume) *tensor.Volume {
	y := x
	for _, op := range o.Body {
		y = op.apply(b, y)
	}
	sc := x
	if o.Shortcut != nil {
		sc = o.Shortcut.apply(b, x)
	}
	return tensor.ReLU(tensor.Add(y, sc))
}

// Network is an ordered stack of ops ending in a classifier.
type Network struct {
	Name       string
	Ops        []Op
	Classifier *tensor.Kernels // FC kernels matching the final volume
}

// Features runs the feature extractor and returns the final volume.
func (n *Network) Features(b Backend, input *tensor.Volume) *tensor.Volume {
	x := input
	for _, op := range n.Ops {
		x = op.apply(b, x)
	}
	return x
}

// Run executes the whole network and returns the class logits.
func (n *Network) Run(b Backend, input *tensor.Volume) []float64 {
	x := n.Features(b, input)
	if n.Classifier == nil {
		panic("inference: network has no classifier") //lint:ignore exit-hygiene network constructed without a classifier; construction bug
	}
	return b.FullyConnected(x, n.Classifier, false)
}

// Predict returns the argmax class.
func (n *Network) Predict(b Backend, input *tensor.Volume) int {
	return Argmax(n.Run(b, input))
}

// Argmax returns the index of the largest logit (first on ties, -1 for
// empty input).
func Argmax(logits []float64) int {
	best, idx := math.Inf(-1), -1
	for i, v := range logits {
		if v > best {
			best, idx = v, i
		}
	}
	return idx
}

// Agreement runs a batch of inputs on two backends and returns the
// top-1 agreement fraction and the mean logit correlation - the
// end-to-end fidelity metrics of the analog pipeline.
func Agreement(n *Network, a, b Backend, inputs []*tensor.Volume) (top1 float64, corr float64) {
	if len(inputs) == 0 {
		return 0, 0
	}
	match := 0
	var corrSum float64
	for _, in := range inputs {
		la := n.Run(a, in)
		lb := n.Run(b, in)
		if Argmax(la) == Argmax(lb) {
			match++
		}
		corrSum += pearson(la, lb)
	}
	return float64(match) / float64(len(inputs)), corrSum / float64(len(inputs))
}

// pearson returns the correlation coefficient of two equal-length
// vectors (0 for degenerate inputs).
func pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	n := float64(len(a))
	ma /= n
	mb /= n
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

// String implements fmt.Stringer.
func (n *Network) String() string {
	return fmt.Sprintf("network{%s, %d ops}", n.Name, len(n.Ops))
}
