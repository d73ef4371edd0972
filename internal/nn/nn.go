// Package nn describes CNN workloads at the layer granularity the
// Albireo performance model consumes: layer kind, input volume shape,
// kernel geometry, stride/padding/grouping. It ships the four
// benchmark networks of the paper's evaluation - AlexNet, VGG16,
// ResNet18, and MobileNet - with 224x224x3 inputs (Section IV-A), and
// utilities for MAC and parameter counting.
package nn

import (
	"fmt"

	"albireo/internal/tensor"
)

// Kind classifies a layer for the mapper.
type Kind int

const (
	// Conv is a standard (optionally grouped) convolution.
	Conv Kind = iota
	// Depthwise is a depthwise convolution (one filter per channel).
	Depthwise
	// Pointwise is a 1x1 convolution, mapped specially on Albireo
	// (Section III-C depthwise-separable discussion).
	Pointwise
	// FC is a fully-connected layer.
	FC
	// MaxPoolKind and AvgPoolKind are pooling layers; they carry no
	// MACs and are executed by the digital aggregation path.
	MaxPoolKind
	AvgPoolKind
	// GEMM is a general matrix multiply: InX rows by InZ reduction
	// elements against an InZ x OutZ weight matrix (the photonic block
	// mapping with matrix rows as pixels; see core/gemm.go).
	GEMM
	// LSTMCell is one recurrent cell unrolled over InX timesteps:
	// InZ input features, OutZ hidden units, four gates per step.
	LSTMCell
	// AttentionBlock is a single-head attention over an InX-long
	// sequence of InZ-dim states: QK^T and AV run on the fabric, the
	// softmax between them is digital.
	AttentionBlock

	// NumKinds is the exclusive upper bound of the Kind enum. It must
	// stay last: the exhaustiveness tests in nn and core iterate
	// [0, NumKinds) and fail CI when a new kind misses a String, MACs,
	// or MapLayer case.
	NumKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case Depthwise:
		return "dwconv"
	case Pointwise:
		return "pwconv"
	case FC:
		return "fc"
	case MaxPoolKind:
		return "maxpool"
	case AvgPoolKind:
		return "avgpool"
	case GEMM:
		return "gemm"
	case LSTMCell:
		return "lstm"
	case AttentionBlock:
		return "attn"
	default:
		return "unknown"
	}
}

// Layer is one network layer with enough geometry for both functional
// simulation and analytic performance modeling.
type Layer struct {
	Name string
	Kind Kind
	// Input volume shape (channels, height, width). For FC the input
	// is flattened: InZ = features, InY = InX = 1.
	InZ, InY, InX int
	// OutZ is the number of kernels / output channels (for pooling it
	// equals InZ).
	OutZ int
	// KY, KX are kernel spatial dims (pool window for pooling; 1 for
	// FC).
	KY, KX int
	// Stride and Pad are symmetric spatial parameters.
	Stride, Pad int
	// Groups is the grouped-convolution factor (1 = dense).
	Groups int
	// Branch marks a layer fed from an earlier activation (e.g. a
	// ResNet downsample shortcut). Branch layers still count MACs and
	// occupy the fabric, but sit outside the main shape chain.
	Branch bool
}

// OutY returns the output height via Eq. 1. GEMM-family layers carry
// their sequence/row extent in InX and have no height.
func (l Layer) OutY() int {
	switch l.Kind {
	case FC, GEMM, LSTMCell, AttentionBlock:
		return 1
	}
	return tensor.ConvOutputDim(l.InY, l.KY, l.Pad, l.strideOr1())
}

// OutX returns the output width via Eq. 1. GEMM-family layers keep
// their row count (GEMM) or sequence length (LSTM, attention).
func (l Layer) OutX() int {
	switch l.Kind {
	case FC:
		return 1
	case GEMM, LSTMCell, AttentionBlock:
		return l.InX
	}
	return tensor.ConvOutputDim(l.InX, l.KX, l.Pad, l.strideOr1())
}

func (l Layer) strideOr1() int {
	if l.Stride <= 0 {
		return 1
	}
	return l.Stride
}

func (l Layer) groupsOr1() int {
	if l.Groups <= 0 {
		return 1
	}
	return l.Groups
}

// MACs returns the multiply-accumulate count of the layer. Pooling
// layers count zero. This is the operation count the paper's GOPS
// figures are based on (Table IV normalizes by MACs; see DESIGN.md).
func (l Layer) MACs() int64 {
	outPix := int64(l.OutY()) * int64(l.OutX())
	switch l.Kind {
	case Conv:
		perOut := int64(l.KY) * int64(l.KX) * int64(l.InZ) / int64(l.groupsOr1())
		return outPix * int64(l.OutZ) * perOut
	case Depthwise:
		return outPix * int64(l.InZ) * int64(l.KY) * int64(l.KX)
	case Pointwise:
		return outPix * int64(l.OutZ) * int64(l.InZ)
	case FC:
		return int64(l.InZ) * int64(l.InY) * int64(l.InX) * int64(l.OutZ)
	case GEMM:
		// M rows x K reduction x N columns.
		return int64(l.InX) * int64(l.InZ) * int64(l.OutZ)
	case LSTMCell:
		// Four gates of OutZ units over [x;h] per timestep.
		return int64(l.InX) * 4 * int64(l.OutZ) * int64(l.InZ+l.OutZ)
	case AttentionBlock:
		// QK^T and AV: two T x T x d products.
		return 2 * int64(l.InX) * int64(l.InX) * int64(l.InZ)
	default:
		return 0
	}
}

// Params returns the weight count of the layer (no biases).
func (l Layer) Params() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.OutZ) * int64(l.InZ) / int64(l.groupsOr1()) * int64(l.KY) * int64(l.KX)
	case Depthwise:
		return int64(l.InZ) * int64(l.KY) * int64(l.KX)
	case Pointwise:
		return int64(l.OutZ) * int64(l.InZ)
	case FC:
		return int64(l.InZ) * int64(l.InY) * int64(l.InX) * int64(l.OutZ)
	case GEMM:
		return int64(l.InZ) * int64(l.OutZ)
	case LSTMCell:
		return 4 * int64(l.OutZ) * int64(l.InZ+l.OutZ)
	case AttentionBlock:
		// The bare block multiplies activations by activations; any
		// Q/K/V projections are separate GEMM layers.
		return 0
	default:
		return 0
	}
}

// HasMACs reports whether the layer performs dot products (and hence
// occupies the photonic fabric).
func (l Layer) HasMACs() bool { return l.MACs() > 0 }

// String implements fmt.Stringer.
func (l Layer) String() string {
	return fmt.Sprintf("%s %s in=%dx%dx%d out=%dx%dx%d k=%dx%d s=%d p=%d g=%d",
		l.Name, l.Kind, l.InZ, l.InY, l.InX, l.OutZ, l.OutY(), l.OutX(),
		l.KY, l.KX, l.strideOr1(), l.Pad, l.groupsOr1())
}

// Model is a named stack of layers.
type Model struct {
	Name   string
	Layers []Layer
}

// TotalMACs sums MACs over all layers.
func (m Model) TotalMACs() int64 {
	var sum int64
	for _, l := range m.Layers {
		sum += l.MACs()
	}
	return sum
}

// TotalParams sums parameters over all layers.
func (m Model) TotalParams() int64 {
	var sum int64
	for _, l := range m.Layers {
		sum += l.Params()
	}
	return sum
}

// Validate checks layer-to-layer shape consistency and returns a
// descriptive error for the first mismatch.
//
//lint:ignore unreachable benchmark/bench_test.go and TestWorkloadModelsValidate check every model with it
func (m Model) Validate() error {
	prevZ, prevY, prevX := -1, -1, -1
	for i, l := range m.Layers {
		if l.Branch {
			continue
		}
		if prevZ >= 0 {
			inZ := l.InZ
			if l.Kind == FC && (prevY != 1 || prevX != 1) {
				// FC flattens the previous volume.
				inZ = l.InZ * l.InY * l.InX
				if inZ != prevZ*prevY*prevX {
					return fmt.Errorf("nn: %s layer %d (%s) flattened input %d != previous volume %d",
						m.Name, i, l.Name, inZ, prevZ*prevY*prevX)
				}
			} else if l.InZ != prevZ || l.InY != prevY || l.InX != prevX {
				return fmt.Errorf("nn: %s layer %d (%s) input %dx%dx%d != previous output %dx%dx%d",
					m.Name, i, l.Name, l.InZ, l.InY, l.InX, prevZ, prevY, prevX)
			}
		}
		switch l.Kind {
		case MaxPoolKind, AvgPoolKind:
			prevZ, prevY, prevX = l.InZ, l.OutY(), l.OutX()
		case FC:
			prevZ, prevY, prevX = l.OutZ, 1, 1
		default:
			prevZ, prevY, prevX = l.OutZ, l.OutY(), l.OutX()
		}
	}
	return nil
}
