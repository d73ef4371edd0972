// Package quant implements the integer quantization used at Albireo's
// electrical/optical boundary. The paper's DACs and ADCs are 8-bit
// (Section IV-A), and "reduced model precision like 8-bit integer
// quantization is common among energy-efficient architectures"
// (Section II-C.2). Activations are unsigned (post-ReLU, encoded as
// optical power), weights are signed (sign handled by the MRR
// switching fabric).
package quant

import "math"

// Quantizer maps real values to a b-bit grid over a known range.
type Quantizer struct {
	// Bits is the integer precision.
	Bits int
	// Signed selects a symmetric signed range [-Scale, +Scale] versus
	// an unsigned range [0, Scale].
	Signed bool
	// Scale is the full-scale magnitude.
	Scale float64
}

// NewActivation returns the unsigned activation quantizer: b bits over
// [0, scale].
func NewActivation(bits int, scale float64) Quantizer {
	return Quantizer{Bits: bits, Signed: false, Scale: scale}
}

// NewWeight returns the signed weight quantizer: b bits over
// [-scale, +scale], symmetric around zero.
func NewWeight(bits int, scale float64) Quantizer {
	return Quantizer{Bits: bits, Signed: true, Scale: scale}
}

// Steps returns the number of positive quantization steps: 2^Bits - 1
// for unsigned, 2^(Bits-1) - 1 for signed.
func (q Quantizer) Steps() int {
	if q.Signed {
		return 1<<uint(q.Bits-1) - 1
	}
	return 1<<uint(q.Bits) - 1
}

// Quantize snaps x onto the grid, clipping to the representable range,
// and returns the dequantized real value.
func (q Quantizer) Quantize(x float64) float64 {
	if q.Scale <= 0 {
		return 0
	}
	steps := float64(q.Steps())
	n := x / q.Scale * steps
	lo := 0.0
	if q.Signed {
		lo = -steps
	}
	n = math.Round(math.Min(math.Max(n, lo), steps))
	return n / steps * q.Scale
}

// Code returns the integer code for x (clipped).
func (q Quantizer) Code(x float64) int {
	if q.Scale <= 0 {
		return 0
	}
	steps := float64(q.Steps())
	n := x / q.Scale * steps
	lo := 0.0
	if q.Signed {
		lo = -steps
	}
	return int(math.Round(math.Min(math.Max(n, lo), steps)))
}

// Dequantize converts an integer code back to a real value.
//
//lint:ignore unreachable TestQuantizerRoundTripEveryBitwidth checks the production Code against it
func (q Quantizer) Dequantize(code int) float64 {
	return float64(code) / float64(q.Steps()) * q.Scale
}

// LSB returns the quantization step size.
func (q Quantizer) LSB() float64 {
	return q.Scale / float64(q.Steps())
}
