package core

import (
	"fmt"
	"math"
	"testing"

	"albireo/internal/tensor"
)

// rmsError returns the RMS difference between two volumes normalized
// by the RMS magnitude of want.
func rmsError(got, want *tensor.Volume) float64 {
	var num, den float64
	for i := range want.Data {
		d := got.Data[i] - want.Data[i]
		num += d * d
		den += want.Data[i] * want.Data[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func TestChipConvMatchesReferenceIdeal(t *testing.T) {
	t.Parallel()
	// With impairments disabled, the analog conv should track the
	// exact reference within quantization error.
	chip := NewChip(idealConfig())
	a := tensor.RandomVolume(6, 8, 8, 101)
	w := tensor.RandomKernels(4, 6, 3, 3, 102)
	cfg := tensor.ConvConfig{Stride: 1, Pad: 1}
	got := chip.Conv(a, w, cfg, false)
	want := tensor.Conv(a, w, cfg)
	if got.Z != want.Z || got.Y != want.Y || got.X != want.X {
		t.Fatalf("shape mismatch: got %v, want %v", got, want)
	}
	if e := rmsError(got, want); e > 0.10 {
		t.Errorf("ideal conv relative RMS error %.4f, want < 0.10", e)
	}
}

func TestChipConvRealisticImpairments(t *testing.T) {
	t.Parallel()
	// With crosstalk and noise enabled, the computation is approximate
	// but still strongly correlated with the reference - the 7-bit
	// worst-case regime of Section II-C.
	chip := NewChip(DefaultConfig())
	a := tensor.RandomVolume(6, 8, 8, 103)
	w := tensor.RandomKernels(4, 6, 3, 3, 104)
	cfg := tensor.ConvConfig{Stride: 1, Pad: 1}
	got := chip.Conv(a, w, cfg, false)
	want := tensor.Conv(a, w, cfg)
	if e := rmsError(got, want); e > 0.15 {
		t.Errorf("realistic conv relative RMS error %.4f, want < 0.15", e)
	}
	// Impairments must actually cost accuracy versus ideal.
	ideal := NewChip(idealConfig()).Conv(a, w, cfg, false)
	if rmsError(got, want) < rmsError(ideal, want) {
		t.Log("note: realistic run happened to beat ideal (noise realization)")
	}
}

func TestChipConvStrideAndRelu(t *testing.T) {
	t.Parallel()
	chip := NewChip(idealConfig())
	a := tensor.RandomVolume(3, 9, 9, 105)
	w := tensor.RandomKernels(2, 3, 3, 3, 106)
	cfg := tensor.ConvConfig{Stride: 2, Pad: 1}
	got := chip.Conv(a, w, cfg, true)
	want := tensor.ReLU(tensor.Conv(a, w, cfg))
	if got.Y != 5 || got.X != 5 {
		t.Fatalf("strided shape %dx%d, want 5x5", got.Y, got.X)
	}
	for _, v := range got.Data {
		if v < 0 {
			t.Fatal("ReLU output must be non-negative")
		}
	}
	if e := rmsError(got, want); e > 0.08 {
		t.Errorf("strided+relu RMS error %.4f", e)
	}
}

func TestChipConvLargeKernelChunks(t *testing.T) {
	t.Parallel()
	// A 5x5 kernel does not fit the 9 MZMs and needs ceil(25/9) = 3
	// tap chunks (Section III-A).
	chip := NewChip(idealConfig())
	if n := (layout{ky: 5, kx: 5}).chunks(chip.cfg.Nm); n != 3 {
		t.Fatalf("5x5 kernel should need 3 chunks, got %d", n)
	}
	if n := (layout{ky: 3, kx: 3}).chunks(chip.cfg.Nm); n != 1 {
		t.Fatalf("3x3 kernel should need 1 chunk, got %d", n)
	}
	if n := (layout{ky: 11, kx: 11}).chunks(chip.cfg.Nm); n != 14 {
		t.Fatalf("11x11 kernel should need 14 chunks, got %d", n)
	}
	a := tensor.RandomVolume(2, 9, 9, 107)
	w := tensor.RandomKernels(2, 2, 5, 5, 108)
	cfg := tensor.ConvConfig{Stride: 1, Pad: 2}
	got := chip.Conv(a, w, cfg, false)
	want := tensor.Conv(a, w, cfg)
	if e := rmsError(got, want); e > 0.12 {
		t.Errorf("5x5 conv RMS error %.4f", e)
	}
}

func TestChipGroupedConv(t *testing.T) {
	t.Parallel()
	chip := NewChip(idealConfig())
	a := tensor.RandomVolume(4, 6, 6, 109)
	w := tensor.RandomKernels(4, 2, 3, 3, 110)
	cfg := tensor.ConvConfig{Stride: 1, Pad: 1, Groups: 2}
	got := chip.Conv(a, w, cfg, false)
	want := tensor.Conv(a, w, cfg)
	if e := rmsError(got, want); e > 0.08 {
		t.Errorf("grouped conv RMS error %.4f", e)
	}
}

func TestChipDepthwiseConv(t *testing.T) {
	t.Parallel()
	chip := NewChip(idealConfig())
	a := tensor.RandomVolume(4, 6, 6, 111)
	w := tensor.RandomKernels(4, 1, 3, 3, 112)
	cfg := tensor.ConvConfig{Stride: 1, Pad: 1, Depthwise: true}
	got := chip.Conv(a, w, cfg, false)
	want := tensor.Conv(a, w, cfg)
	if got.Z != 4 {
		t.Fatal("depthwise preserves channel count")
	}
	if e := rmsError(got, want); e > 0.08 {
		t.Errorf("depthwise RMS error %.4f", e)
	}
}

func TestChipPointwise(t *testing.T) {
	t.Parallel()
	chip := NewChip(idealConfig())
	a := tensor.RandomVolume(20, 4, 4, 113)
	w := tensor.RandomKernels(6, 20, 1, 1, 114)
	got := chip.Pointwise(a, w, false)
	want := tensor.Conv(a, w, tensor.ConvConfig{})
	if got.Z != 6 || got.Y != 4 || got.X != 4 {
		t.Fatal("pointwise output shape")
	}
	if e := rmsError(got, want); e > 0.12 {
		t.Errorf("pointwise RMS error %.4f", e)
	}
}

func TestChipFullyConnected(t *testing.T) {
	t.Parallel()
	chip := NewChip(idealConfig())
	a := tensor.RandomVolume(4, 3, 3, 115)
	w := tensor.RandomKernels(8, 4, 3, 3, 116)
	got := chip.FullyConnected(a, w, false)
	want := tensor.FullyConnected(a, w)
	if len(got) != 8 {
		t.Fatal("FC output length")
	}
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if e := math.Sqrt(num / den); e > 0.08 {
		t.Errorf("FC RMS error %.4f", e)
	}
	// ReLU variant clamps.
	rl := chip.FullyConnected(a, w, true)
	for i, v := range rl {
		if v < 0 {
			t.Fatal("FC ReLU must clamp negatives")
		}
		if want[i] > 0.1 && math.Abs(v-got[i]) > 0.2 {
			t.Error("positive outputs should match between relu/no-relu runs up to noise")
		}
	}
}

func TestChipZeroInputs(t *testing.T) {
	t.Parallel()
	chip := NewChip(idealConfig())
	a := tensor.NewVolume(3, 5, 5)
	w := tensor.RandomKernels(2, 3, 3, 3, 117)
	out := chip.Conv(a, w, tensor.ConvConfig{Pad: 1}, false)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("all-zero input must give all-zero output")
		}
	}
	zeroW := tensor.NewKernels(2, 3, 3, 3)
	out2 := chip.Conv(tensor.RandomVolume(3, 5, 5, 118), zeroW, tensor.ConvConfig{Pad: 1}, false)
	for _, v := range out2.Data {
		if v != 0 {
			t.Fatal("all-zero kernels must give all-zero output")
		}
	}
}

func TestChipRejectsNegativeActivations(t *testing.T) {
	t.Parallel()
	chip := NewChip(idealConfig())
	a := tensor.NewVolume(1, 2, 2)
	a.Set(0, 0, 0, -1)
	w := tensor.RandomKernels(1, 1, 1, 1, 119)
	defer func() {
		if recover() == nil {
			t.Error("negative activations should panic (optical power encoding)")
		}
	}()
	chip.Conv(a, w, tensor.ConvConfig{}, false)
}

func TestChipAccessors(t *testing.T) {
	t.Parallel()
	chip := NewChip(idealConfig())
	if chip.Config().Ng != 9 || len(chip.Groups()) != 9 {
		t.Error("chip should expose its 9 PLCGs")
	}
	g := chip.Groups()[0]
	if len(g.Units()) != 3 {
		t.Error("each PLCG should hold 3 PLCUs")
	}
}

func TestPLCGStepTailChannels(t *testing.T) {
	t.Parallel()
	// Tail channel groups may pass fewer than Nu slots.
	g := NewPLCG(idealConfig())
	w := make([]float64, 9)
	w[0] = 1
	av := make([]float64, 9*5)
	av[0] = 1
	out := g.stepPrequantized(make([]float64, 5), [][]float64{w}, [][]float64{av}, 5)
	if math.Abs(out[0]-1) > 0.15 {
		t.Errorf("single-slot step = %g, want ~1", out[0])
	}
	defer func() {
		if recover() == nil {
			t.Error("too many slots should panic")
		}
	}()
	g.stepPrequantized(make([]float64, 5), make([][]float64, 4), make([][]float64, 4), 5)
}

// TestKernelsDoNotWriteRowViews checks that no mapping's kernel body
// writes through its activation sets, which alias the row plan's flat
// stage, or into the chip's pre-quantized input: after each layer runs
// on the lane path, the pre-quantized volume and the stage match, bit
// for bit, a twin chip that built the same plan without running a
// kernel (filling every depthwise channel, as the depthwise kernels
// do). The cases cover stride-1 rows with tail tiles, strided rows,
// tap-chunk tails, depthwise at stride 1 and 2, pointwise full and
// tail tiles with idle taps, FC, and the signed GEMM's second pass.
func TestKernelsDoNotWriteRowViews(t *testing.T) {
	receptive := func(a *tensor.Volume, w *tensor.Kernels, stride, pad int) func(*Chip) {
		return func(c *Chip) {
			out := tensor.NewVolume(w.M, tensor.ConvOutputDim(a.Y, w.Y, pad, stride), tensor.ConvOutputDim(a.X, w.X, pad, stride))
			lay := layout{z: w.Z, ky: w.Y, kx: w.X}
			ph, pw := paddedDims(a, lay, pad, stride, out, c.cfg.Nd)
			scale := c.padInput(a, ph, pw)
			c.plan.receptive(&c.qaVol, lay, out, stride)
			for z := 0; z < a.Z; z++ {
				c.quantizePlane(a, z, pad, scale)
				for oy := 0; oy < out.Y; oy++ {
					c.plan.fillRow(z, oy)
				}
			}
		}
	}
	// block views n elements of data as the Nm-row volume of the block
	// layout, npix pixels per element, and fills it as the layer does.
	block := func(data []float64, n, npix int) func(*Chip) {
		return func(c *Chip) {
			lay := c.cfg.blockView(n)
			v := &tensor.Volume{Z: lay.z, Y: lay.ky, X: npix, Data: data}
			out := &tensor.Volume{Z: 1, Y: 1, X: npix}
			ph, pw := paddedDims(v, lay, 0, 1, out, c.cfg.Nd)
			scale := c.padInput(v, ph, pw)
			c.plan.receptive(&c.qaVol, lay, out, 1)
			for z := 0; z < v.Z; z++ {
				c.quantizePlane(v, z, 0, scale)
				c.plan.fillRow(z, 0)
			}
		}
	}
	type mapping struct {
		name string
		run  func(*Chip)
		plan func(*Chip)
	}
	var cases []mapping
	for _, g := range []struct{ k, stride, pad int }{{3, 1, 1}, {3, 2, 1}, {5, 1, 2}} {
		seed := int64(700 + g.k + g.stride)
		a := tensor.RandomVolume(6, 9, 9, seed)
		w := tensor.RandomKernels(7, 6, g.k, g.k, seed+1)
		cc := tensor.ConvConfig{Stride: g.stride, Pad: g.pad}
		cases = append(cases, mapping{fmt.Sprintf("conv%dx%d-s%dp%d", g.k, g.k, g.stride, g.pad),
			func(c *Chip) { c.Conv(a, w, cc, true) }, receptive(a, w, g.stride, g.pad)})
	}
	dwA, dwW := tensor.RandomVolume(5, 9, 9, 711), tensor.RandomKernels(5, 1, 3, 3, 712)
	for _, stride := range []int{1, 2} {
		cc := tensor.ConvConfig{Stride: stride, Pad: 1, Depthwise: true}
		cases = append(cases, mapping{fmt.Sprintf("depthwise-s%d", stride),
			func(c *Chip) { c.Conv(dwA, dwW, cc, true) }, receptive(dwA, dwW, stride, 1)})
	}
	pwA, pwW := tensor.RandomVolume(6, 7, 7, 721), tensor.RandomKernels(13, 6, 1, 1, 722)
	fcA, fcW := tensor.RandomVolume(4, 5, 5, 731), tensor.RandomKernels(6, 4, 5, 5, 732)
	mA, mB := tensor.RandomMatrix(11, 14, 741), tensor.RandomMatrix(14, 13, 742)
	cases = append(cases,
		mapping{"pointwise", func(c *Chip) { c.Pointwise(pwA, pwW, true) }, block(pwA.Data, pwA.Z, pwA.Y*pwA.X)},
		mapping{"fc", func(c *Chip) { c.FullyConnected(fcA, fcW, true) }, block(fcA.Data, len(fcA.Data), 1)},
		mapping{"gemm-signed", func(c *Chip) { c.GEMM(mA, mB, false) }, func(c *Chip) {
			c.stageSigned(mA)
			block(c.negVol.Data, mA.C, mA.R)(c)
		}},
	)
	for _, tc := range cases {
		want := NewChip(DefaultConfig())
		tc.plan(want)
		c := NewChip(DefaultConfig())
		manyLanes(func() int { tc.run(c); return 0 })
		if !sameBits(c.qaVol.Data, want.qaVol.Data) {
			t.Errorf("%s: the pre-quantized input changed while the kernels ran", tc.name)
		}
		if !sameBits(c.plan.stage, want.plan.stage) {
			t.Errorf("%s: the plan's stage changed while the kernels ran", tc.name)
		}
	}
}
