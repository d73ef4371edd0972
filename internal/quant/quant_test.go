package quant

import (
	"math"
	"testing"
	"testing/quick"
)

func TestActivationQuantizer(t *testing.T) {
	q := NewActivation(8, 1.0)
	if q.Steps() != 255 {
		t.Fatal("8-bit unsigned should have 255 steps")
	}
	if q.Quantize(0) != 0 || q.Quantize(1) != 1 {
		t.Error("endpoints must be exact")
	}
	if q.Quantize(-0.5) != 0 {
		t.Error("negative activations clip to zero")
	}
	if q.Quantize(2) != 1 {
		t.Error("overflow clips to full scale")
	}
	// Error bounded by half an LSB in range.
	f := func(x float64) bool {
		x = math.Abs(math.Mod(x, 1))
		return math.Abs(q.Quantize(x)-x) <= q.LSB()/2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightQuantizer(t *testing.T) {
	q := NewWeight(8, 1.0)
	if q.Steps() != 127 {
		t.Fatal("8-bit signed should have 127 positive steps")
	}
	if q.Quantize(-1) != -1 || q.Quantize(1) != 1 {
		t.Error("signed endpoints must be exact")
	}
	if q.Quantize(0) != 0 {
		t.Error("zero must be exactly representable (symmetric quantizer)")
	}
	// Symmetry property.
	f := func(x float64) bool {
		x = math.Mod(x, 1)
		return math.Abs(q.Quantize(x)+q.Quantize(-x)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodeDequantizeRoundTrip(t *testing.T) {
	q := NewWeight(8, 2.0)
	f := func(x float64) bool {
		x = math.Mod(x, 2)
		code := q.Code(x)
		return math.Abs(q.Dequantize(code)-q.Quantize(x)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if q.Code(5) != 127 || q.Code(-5) != -127 {
		t.Error("codes must clip at the rails")
	}
}

func TestScaleHandling(t *testing.T) {
	q := NewActivation(8, 4.0)
	if math.Abs(q.Quantize(2.0)-2.0) > q.LSB()/2 {
		t.Error("mid-scale quantization with non-unit scale")
	}
	degenerate := NewActivation(8, 0)
	if degenerate.Quantize(1) != 0 || degenerate.Code(1) != 0 {
		t.Error("zero scale should quantize everything to zero")
	}
}

func TestQuantizeSlice(t *testing.T) {
	q := NewWeight(4, 1.0) // coarse grid: 7 steps
	xs := []float64{0.5, -0.5, 0.99, -3}
	q.QuantizeSlice(xs)
	for _, x := range xs {
		code := x * 7
		if math.Abs(code-math.Round(code)) > 1e-9 {
			t.Errorf("%g is not on the 4-bit grid", x)
		}
	}
	if xs[3] != -1 {
		t.Error("clipping in slice form")
	}
}

func TestLowBitWidths(t *testing.T) {
	// 1-bit signed: codes {-1, 0, 1}.
	q := NewWeight(2, 1)
	if q.Steps() != 1 {
		t.Fatal("2-bit signed has one positive step")
	}
	if q.Quantize(0.6) != 1 || q.Quantize(-0.6) != -1 || q.Quantize(0.2) != 0 {
		t.Error("coarse rounding incorrect")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// QuantizeSlice quantizes every element of xs in place and returns xs.
func (q Quantizer) QuantizeSlice(xs []float64) []float64 {
	for i, x := range xs {
		xs[i] = q.Quantize(x)
	}
	return xs
}
