package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvOutputDim(t *testing.T) {
	// Eq. 1 examples:
	// 224-input, 3x3 kernel, pad 1, stride 1 -> 224 (VGG layers).
	if got := ConvOutputDim(224, 3, 1, 1); got != 224 {
		t.Errorf("VGG conv dim = %d, want 224", got)
	}
	// AlexNet conv1: 227 input, 11x11, pad 0, stride 4 -> 55.
	if got := ConvOutputDim(227, 11, 0, 4); got != 55 {
		t.Errorf("AlexNet conv1 dim = %d, want 55", got)
	}
	// 7x7 stride 2 pad 3 on 224 -> 112 (ResNet stem).
	if got := ConvOutputDim(224, 7, 3, 2); got != 112 {
		t.Errorf("ResNet stem dim = %d, want 112", got)
	}
	// Window larger than padded input -> 0.
	if got := ConvOutputDim(2, 5, 0, 1); got != 0 {
		t.Errorf("degenerate dim = %d, want 0", got)
	}
}

func TestConvIdentityKernel(t *testing.T) {
	// A 1x1 identity kernel reproduces the input channel.
	a := RandomVolume(1, 4, 4, 1)
	w := NewKernels(1, 1, 1, 1)
	w.Set(0, 0, 0, 0, 1)
	out := Conv(a, w, ConvConfig{})
	for i := range a.Data {
		if math.Abs(out.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatal("identity conv should reproduce input")
		}
	}
}

func TestConvHandComputed(t *testing.T) {
	// 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad.
	a := NewVolume(1, 3, 3)
	a.Fill(func(z, y, x int) float64 { return float64(y*3 + x + 1) }) // 1..9
	w := NewKernels(1, 1, 2, 2)
	w.Fill(func(m, z, y, x int) float64 { return 1 }) // box filter
	out := Conv(a, w, ConvConfig{})
	if out.Y != 2 || out.X != 2 {
		t.Fatalf("output shape %dx%d, want 2x2", out.Y, out.X)
	}
	want := [][]float64{{12, 16}, {24, 28}} // sums of 2x2 blocks
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			if math.Abs(out.At(0, y, x)-want[y][x]) > 1e-12 {
				t.Errorf("out[%d][%d] = %g, want %g", y, x, out.At(0, y, x), want[y][x])
			}
		}
	}
}

func TestConvPadding(t *testing.T) {
	// Same-padding 3x3 box filter over a single-pixel impulse sums to
	// 1 at every position covered by the kernel.
	a := NewVolume(1, 5, 5)
	a.Set(0, 2, 2, 1)
	w := NewKernels(1, 1, 3, 3)
	w.Fill(func(m, z, y, x int) float64 { return 1 })
	out := Conv(a, w, ConvConfig{Pad: 1})
	if out.Y != 5 || out.X != 5 {
		t.Fatalf("same padding should preserve shape, got %dx%d", out.Y, out.X)
	}
	var total float64
	for _, v := range out.Data {
		total += v
	}
	if math.Abs(total-9) > 1e-12 {
		t.Errorf("impulse response sum = %g, want 9", total)
	}
}

func TestConvStride(t *testing.T) {
	a := RandomVolume(2, 8, 8, 2)
	w := RandomKernels(3, 2, 3, 3, 3)
	out := Conv(a, w, ConvConfig{Stride: 2, Pad: 1})
	if out.Z != 3 || out.Y != 4 || out.X != 4 {
		t.Fatalf("strided output shape %dx%dx%d, want 3x4x4", out.Z, out.Y, out.X)
	}
	// Spot-check one strided position against a direct sum.
	var want float64
	for z := 0; z < 2; z++ {
		for ky := 0; ky < 3; ky++ {
			for kx := 0; kx < 3; kx++ {
				want += a.AtPadded(z, 2*2-1+ky, 2*1-1+kx) * w.At(1, z, ky, kx)
			}
		}
	}
	if math.Abs(out.At(1, 2, 1)-want) > 1e-12 {
		t.Error("strided convolution value mismatch")
	}
}

func TestConvGroups(t *testing.T) {
	// Grouped conv with 2 groups: output m only sees its half of the
	// input channels.
	a := RandomVolume(4, 4, 4, 4)
	w := RandomKernels(2, 2, 1, 1, 5)
	out := Conv(a, w, ConvConfig{Groups: 2})
	// Output 0 uses input channels 0-1, output 1 uses 2-3.
	var want0 float64
	for z := 0; z < 2; z++ {
		want0 += a.At(z, 1, 1) * w.At(0, z, 0, 0)
	}
	if math.Abs(out.At(0, 1, 1)-want0) > 1e-12 {
		t.Error("group 0 mismatch")
	}
	var want1 float64
	for z := 0; z < 2; z++ {
		want1 += a.At(2+z, 1, 1) * w.At(1, z, 0, 0)
	}
	if math.Abs(out.At(1, 1, 1)-want1) > 1e-12 {
		t.Error("group 1 mismatch")
	}
}

func TestConvDepthwise(t *testing.T) {
	a := RandomVolume(3, 6, 6, 6)
	w := RandomKernels(3, 1, 3, 3, 7)
	out := Conv(a, w, ConvConfig{Pad: 1, Depthwise: true})
	if out.Z != 3 || out.Y != 6 || out.X != 6 {
		t.Fatal("depthwise output shape")
	}
	// Channel independence: zeroing other channels must not change
	// channel 1's output.
	masked := a.Clone()
	for z := 0; z < 3; z++ {
		if z == 1 {
			continue
		}
		for y := 0; y < 6; y++ {
			for x := 0; x < 6; x++ {
				masked.Set(z, y, x, 0)
			}
		}
	}
	out2 := Conv(masked, w, ConvConfig{Pad: 1, Depthwise: true})
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			if math.Abs(out.At(1, y, x)-out2.At(1, y, x)) > 1e-12 {
				t.Fatal("depthwise channels must be independent")
			}
		}
	}
}

func TestConvLinearity(t *testing.T) {
	// Property: conv(a1 + a2) = conv(a1) + conv(a2).
	f := func(seed int64) bool {
		a1 := RandomVolume(2, 5, 5, seed)
		a2 := RandomVolume(2, 5, 5, seed+1)
		w := RandomKernels(2, 2, 3, 3, seed+2)
		sum := a1.Clone()
		for i := range sum.Data {
			sum.Data[i] += a2.Data[i]
		}
		c1 := Conv(a1, w, ConvConfig{Pad: 1})
		c2 := Conv(a2, w, ConvConfig{Pad: 1})
		cs := Conv(sum, w, ConvConfig{Pad: 1})
		for i := range cs.Data {
			if math.Abs(cs.Data[i]-(c1.Data[i]+c2.Data[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// convPerMAC is Algorithm 1 read literally, one AtPadded and one
// Kernels.At per MAC, each output summed from +0 in (z, ky, kx) order,
// with depthwise as its own loop: the oracle Conv must match bit for
// bit.
func convPerMAC(a *Volume, w *Kernels, cfg ConvConfig) *Volume {
	cfg = cfg.normalize()
	by := ConvOutputDim(a.Y, w.Y, cfg.Pad, cfg.Stride)
	bx := ConvOutputDim(a.X, w.X, cfg.Pad, cfg.Stride)
	out := NewVolume(w.M, by, bx)
	if cfg.Depthwise {
		for z := 0; z < a.Z; z++ {
			for oy := 0; oy < by; oy++ {
				for ox := 0; ox < bx; ox++ {
					var sum float64
					ay0 := oy*cfg.Stride - cfg.Pad
					ax0 := ox*cfg.Stride - cfg.Pad
					for ky := 0; ky < w.Y; ky++ {
						for kx := 0; kx < w.X; kx++ {
							sum += a.AtPadded(z, ay0+ky, ax0+kx) * w.At(z, 0, ky, kx)
						}
					}
					out.Set(z, oy, ox, sum)
				}
			}
		}
		return out
	}
	mPerGroup := w.M / cfg.Groups
	zPerGroup := a.Z / cfg.Groups
	for m := 0; m < w.M; m++ {
		g := m / mPerGroup
		zBase := g * zPerGroup
		for oy := 0; oy < by; oy++ {
			for ox := 0; ox < bx; ox++ {
				var sum float64
				ay0 := oy*cfg.Stride - cfg.Pad
				ax0 := ox*cfg.Stride - cfg.Pad
				for z := 0; z < w.Z; z++ {
					for ky := 0; ky < w.Y; ky++ {
						for kx := 0; kx < w.X; kx++ {
							sum += a.AtPadded(zBase+z, ay0+ky, ax0+kx) * w.At(m, z, ky, kx)
						}
					}
				}
				out.Set(m, oy, ox, sum)
			}
		}
	}
	return out
}

// convCase is one conv geometry drawn from small fuzz-friendly
// integers: every field is reduced into range (pad p is Pad p%6-1, so
// 0 crops a border), so any input is a valid layer.
type convCase struct {
	z, y, x, m, ky, kx, stride, pad, groups uint8
	depthwise                               bool
	seed                                    int64
}

// build returns the case's input, kernels and config. Values mix
// uniform activations with +-0 inputs and, now and then, a NaN or
// +-Inf weight, which must reach every output whose window covers it
// (padding taps included).
func (c convCase) build() (*Volume, *Kernels, ConvConfig) {
	rng := rand.New(rand.NewSource(c.seed))
	groups := 1 + int(c.groups)%3
	zc := groups * (1 + int(c.z)%3)
	if c.depthwise {
		zc = 1 + int(c.z)%6
	}
	a := NewVolume(zc, int(c.y)%9, int(c.x)%9)
	for i := range a.Data {
		switch r := rng.Intn(8); {
		case r == 0:
			a.Data[i] = math.Copysign(0, -1)
		case r == 1:
			a.Data[i] = 0
		default:
			a.Data[i] = rng.NormFloat64()
		}
	}
	cfg := ConvConfig{Stride: 1 + int(c.stride)%3, Pad: int(c.pad)%6 - 1, Groups: groups, Depthwise: c.depthwise}
	m, kz := groups*(1+int(c.m)%3), zc/groups
	if c.depthwise {
		m, kz, cfg.Groups = zc, 1, 0
	}
	w := NewKernels(m, kz, 1+int(c.ky)%4, 1+int(c.kx)%4)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.3
		if rng.Intn(64) == 0 {
			w.Data[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(4)]
		}
	}
	return a, w, cfg
}

// sameBits reports whether two floats have the same bits, or are both
// NaN: which operand's payload a NaN sum keeps is the compiler's choice
// of operand order for a commutative add, not the summation order.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// check fails t unless Conv equals the per-MAC oracle bit for bit.
func (c convCase) check(t *testing.T) {
	t.Helper()
	a, w, cfg := c.build()
	got, want := Conv(a, w, cfg), convPerMAC(a, w, cfg)
	if got.Z != want.Z || got.Y != want.Y || got.X != want.X {
		t.Fatalf("%+v: shape %dx%dx%d, oracle %dx%dx%d", c, got.Z, got.Y, got.X, want.Z, want.Y, want.X)
	}
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%+v: output %d = %v (%#x), oracle %v (%#x)", c, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestConvMatchesPerMAC checks Conv against the per-MAC oracle, bit
// for bit, on fixed edge geometries and random ones: strides 1-3,
// pads -1 (a crop) to 4 (past the kernel), groups, depthwise, kernels
// larger than the input, empty inputs and outputs, +-0 inputs and
// NaN/Inf weights.
func TestConvMatchesPerMAC(t *testing.T) {
	for _, c := range []convCase{
		{z: 2, y: 5, x: 5, ky: 2, kx: 2, pad: 5},                  // pad 4, past the 3x3 kernel
		{z: 1, y: 2, x: 3, ky: 3, kx: 3, pad: 1},                  // 4x4 kernel on a 2x3 input: empty output
		{z: 1, y: 0, x: 4, pad: 2},                                // empty input, padded
		{z: 3, y: 7, x: 7, ky: 2, kx: 2, stride: 1, pad: 2},       // stride 2
		{z: 5, y: 6, x: 6, ky: 2, kx: 2, pad: 2, depthwise: true}, // depthwise 3x3
		{z: 1, y: 8, x: 8, m: 2, ky: 2, kx: 1, groups: 1, pad: 1}, // 2 groups, 3x2 kernel
		{z: 2, y: 6, x: 5, ky: 1, kx: 2},                          // pad -1 crops the border
	} {
		c.check(t)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		b := make([]uint8, 9)
		for j := range b {
			b[j] = uint8(rng.Intn(256))
		}
		convCase{b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], rng.Intn(4) == 0, rng.Int63()}.check(t)
	}
}

// FuzzConvMatchesPerMAC is TestConvMatchesPerMAC's random geometry
// driven by the fuzzer.
func FuzzConvMatchesPerMAC(f *testing.F) {
	f.Add(uint8(2), uint8(5), uint8(5), uint8(1), uint8(2), uint8(2), uint8(0), uint8(1), uint8(1), false, int64(1))
	f.Add(uint8(4), uint8(6), uint8(7), uint8(0), uint8(2), uint8(1), uint8(1), uint8(4), uint8(0), true, int64(2))
	f.Fuzz(func(t *testing.T, z, y, x, m, ky, kx, stride, pad, groups uint8, depthwise bool, seed int64) {
		convCase{z, y, x, m, ky, kx, stride, pad, groups, depthwise, seed}.check(t)
	})
}

func TestFullyConnected(t *testing.T) {
	a := RandomVolume(2, 3, 3, 11)
	w := RandomKernels(4, 2, 3, 3, 12)
	out := FullyConnected(a, w)
	if len(out) != 4 {
		t.Fatal("FC output length")
	}
	// FC is equivalent to a conv whose kernel covers the whole input.
	conv := Conv(a, w, ConvConfig{})
	if conv.Y != 1 || conv.X != 1 {
		t.Fatal("full-size kernel conv should be 1x1")
	}
	for m := 0; m < 4; m++ {
		if math.Abs(out[m]-conv.At(m, 0, 0)) > 1e-12 {
			t.Error("FC must equal whole-input convolution (Section III-C)")
		}
	}
}

func TestReLU(t *testing.T) {
	v := NewVolume(1, 1, 4)
	copy(v.Data, []float64{-1, 0, 2, -0.5})
	ReLU(v)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if v.Data[i] != want[i] {
			t.Errorf("ReLU[%d] = %g, want %g", i, v.Data[i], want[i])
		}
	}
	vec := ReLUVec([]float64{-3, 3})
	if vec[0] != 0 || vec[1] != 3 {
		t.Error("ReLUVec mismatch")
	}
}

func TestMaxPool(t *testing.T) {
	a := NewVolume(1, 4, 4)
	a.Fill(func(z, y, x int) float64 { return float64(y*4 + x) })
	out := MaxPool(a, 2, 2)
	if out.Y != 2 || out.X != 2 {
		t.Fatal("pool shape")
	}
	want := [][]float64{{5, 7}, {13, 15}}
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			if out.At(0, y, x) != want[y][x] {
				t.Errorf("maxpool[%d][%d] = %g, want %g", y, x, out.At(0, y, x), want[y][x])
			}
		}
	}
}

func TestAvgPool(t *testing.T) {
	a := NewVolume(1, 2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	out := AvgPool(a, 2, 2)
	if out.At(0, 0, 0) != 2.5 {
		t.Errorf("avgpool = %g, want 2.5", out.At(0, 0, 0))
	}
}

func TestAdd(t *testing.T) {
	a := RandomVolume(2, 2, 2, 20)
	b := RandomVolume(2, 2, 2, 21)
	out := Add(a, b)
	for i := range out.Data {
		if math.Abs(out.Data[i]-(a.Data[i]+b.Data[i])) > 1e-12 {
			t.Fatal("Add mismatch")
		}
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	a := NewVolume(3, 4, 4)
	expectPanic("bad groups", func() {
		Conv(a, NewKernels(2, 3, 3, 3), ConvConfig{Groups: 2})
	})
	expectPanic("bad kernel depth", func() {
		Conv(a, NewKernels(2, 2, 3, 3), ConvConfig{})
	})
	expectPanic("bad depthwise", func() {
		Conv(a, NewKernels(2, 1, 3, 3), ConvConfig{Depthwise: true})
	})
	expectPanic("bad FC shape", func() {
		FullyConnected(a, NewKernels(1, 1, 1, 1))
	})
	expectPanic("Add mismatch", func() {
		Add(a, NewVolume(1, 1, 1))
	})
	expectPanic("zero stride output dim", func() {
		ConvOutputDim(4, 2, 0, 0)
	})
	expectPanic("negative volume", func() {
		NewVolume(-1, 2, 2)
	})
	expectPanic("negative kernels", func() {
		NewKernels(1, -1, 2, 2)
	})
}

func TestVolumeHelpers(t *testing.T) {
	v := NewVolume(1, 2, 2)
	v.Set(0, 1, 1, -3)
	if v.MaxAbs() != 3 {
		t.Error("MaxAbs")
	}
	if v.AtPadded(0, -1, 0) != 0 || v.AtPadded(0, 0, 5) != 0 {
		t.Error("padding should read as zero")
	}
	z, y, x := v.Shape()
	if z != 1 || y != 2 || x != 2 {
		t.Error("Shape")
	}
	c := v.Clone()
	c.Set(0, 0, 0, 9)
	if v.At(0, 0, 0) == 9 {
		t.Error("Clone must be deep")
	}
	k := RandomKernels(1, 1, 2, 2, 9)
	if k.MaxAbs() <= 0 || k.MaxAbs() > 1 {
		t.Error("random kernels should be clipped to [-1,1]")
	}
	if v.String() == "" {
		t.Error("String")
	}
}
