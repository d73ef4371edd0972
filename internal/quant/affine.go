package quant

import "math"

// Affine is the asymmetric per-tensor quantizer of the end-to-end
// integer inference path: real x is approximated by
// Scale * (code - Zero) with codes in [0, 2^Bits - 1]. The zero point
// keeps 0.0 exactly representable, which the integer path relies on
// (padding and ReLU outputs must quantize without bias). Weights use
// the symmetric signed Quantizer; Affine covers activations, whose
// ranges are one-sided and shift layer to layer.
type Affine struct {
	// Bits is the code width.
	Bits int
	// Scale is the real size of one code step. Zero means a degenerate
	// all-zero tensor: every value maps to the zero point.
	Scale float64
	// Zero is the code of real 0.0.
	Zero int64
}

// CalibrateAffine fits a Bits-wide affine grid to the observed range
// of data, widened to include 0 so the zero point is exact.
func CalibrateAffine(data []float64, bits int) Affine {
	lo, hi := 0.0, 0.0
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	a := Affine{Bits: bits}
	if hi == lo {
		return a
	}
	a.Scale = (hi - lo) / float64(a.MaxCode())
	a.Zero = int64(math.Round(-lo / a.Scale))
	return a
}

// MaxCode returns the largest representable code, 2^Bits - 1.
func (a Affine) MaxCode() int64 { return 1<<uint(a.Bits) - 1 }

// Code returns the integer code for x, clipped to [0, MaxCode].
func (a Affine) Code(x float64) int64 {
	if a.Scale <= 0 {
		return a.Zero
	}
	n := math.Round(x/a.Scale) + float64(a.Zero)
	if n < 0 {
		n = 0
	}
	if max := float64(a.MaxCode()); n > max {
		n = max
	}
	return int64(n)
}

// Dequantize converts a code back to a real value.
//
//lint:ignore unreachable TestAffineRoundTripEveryBitwidth checks the production Code against it
func (a Affine) Dequantize(code int64) float64 {
	return a.Scale * float64(code-a.Zero)
}

// Quantize snaps x onto the affine grid and returns the dequantized
// real value.
//
//lint:ignore unreachable TestAffineRoundTripEveryBitwidth checks the production Code against it
func (a Affine) Quantize(x float64) float64 {
	return a.Dequantize(a.Code(x))
}

// Requantize maps an integer accumulator acc = sum (qx - Zx) * qw back
// to the real line: the digital aggregation unit's single multiply by
// the product of the activation and weight scales. Biases and
// activation functions apply after this, in real space, before the
// next layer's Code pass.
func Requantize(acc int64, actScale, wScale float64) float64 {
	return float64(acc) * actScale * wScale
}
