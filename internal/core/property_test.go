package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"albireo/internal/nn"
	"albireo/internal/tensor"
)

// Property-based tests (testing/quick) on the core invariants of the
// analog fabric and the mapping model.

// randomSlot draws a random weight vector and activation matrix.
func randomSlot(rng *rand.Rand) ([]float64, [][]float64) {
	w := make([]float64, 9)
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	a := make([][]float64, 9)
	for i := range a {
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.Float64()
		}
		a[i] = row
	}
	return w, a
}

func TestPropertyDotBounded(t *testing.T) {
	t.Parallel()
	// Every dot product is bounded by +-Nm regardless of inputs, even
	// with crosstalk and noise: the optical power budget caps it.
	p := NewPLCU(DefaultConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, a := randomSlot(rng)
		for _, v := range dot(p, w, a) {
			if math.Abs(v) > 9.5 { // Nm plus crosstalk/noise margin
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyWeightSignSymmetry(t *testing.T) {
	t.Parallel()
	// Negating every weight negates the output exactly (ideal
	// devices): the balanced-PD subtraction of Eq. 4 is antisymmetric.
	p := NewPLCU(idealConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, a := randomSlot(rng)
		pos := dot(p, w, a)
		neg := make([]float64, len(w))
		for i := range w {
			neg[i] = -w[i]
		}
		flipped := dot(p, neg, a)
		for d := range pos {
			if math.Abs(pos[d]+flipped[d]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyActivationMonotone(t *testing.T) {
	t.Parallel()
	// With a single positive weight, raising the activation never
	// lowers the output (ideal devices; DAC quantization is monotone).
	p := NewPLCU(idealConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, 9)
		w[0] = rng.Float64()
		base := make([][]float64, 9)
		for i := range base {
			base[i] = make([]float64, 5)
		}
		prev := math.Inf(-1)
		for _, a0 := range []float64{0, 0.25, 0.5, 0.75, 1} {
			base[0][0] = a0
			v := dot(p, w, base)[0]
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyConvScaleEquivariance(t *testing.T) {
	t.Parallel()
	// Scaling the input volume scales the (ideal) analog output by the
	// same factor, up to quantization: the chip normalizes internally,
	// so the encoding is scale-free.
	chip := NewChip(idealConfig())
	f := func(seed int64, rawScale float64) bool {
		scale := 0.25 + math.Abs(math.Mod(rawScale, 4))
		a := tensor.RandomVolume(3, 6, 6, seed)
		w := tensor.RandomKernels(2, 3, 3, 3, seed+1)
		cfg := tensor.ConvConfig{Pad: 1}
		base := chip.Conv(a, w, cfg, false)
		scaled := a.Clone()
		for i := range scaled.Data {
			scaled.Data[i] *= scale
		}
		out := chip.Conv(scaled, w, cfg, false)
		for i := range base.Data {
			if math.Abs(out.Data[i]-scale*base.Data[i]) > 0.05*scale*9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMappingMonotone(t *testing.T) {
	t.Parallel()
	// Cycle counts never decrease when a layer grows in any dimension.
	cfg := DefaultConfig()
	base := nn.Layer{Kind: nn.Conv, InZ: 16, InY: 14, InX: 14, OutZ: 32, KY: 3, KX: 3, Stride: 1, Pad: 1}
	baseCycles := cfg.MapLayer(base).Cycles
	grow := []func(nn.Layer) nn.Layer{
		func(l nn.Layer) nn.Layer { l.InZ *= 2; return l },
		func(l nn.Layer) nn.Layer { l.OutZ *= 2; return l },
		func(l nn.Layer) nn.Layer { l.InY *= 2; l.InX *= 2; return l },
		func(l nn.Layer) nn.Layer { l.KY, l.KX = 5, 5; return l },
	}
	for i, g := range grow {
		if got := cfg.MapLayer(g(base)).Cycles; got < baseCycles {
			t.Errorf("growth %d should not reduce cycles: %d < %d", i, got, baseCycles)
		}
	}
	// And shrinking the chip never speeds it up.
	small := cfg
	small.Ng = 3
	if small.MapLayer(base).Cycles < baseCycles {
		t.Error("fewer PLCGs cannot be faster")
	}
}

func TestPropertyMappingCoversMACs(t *testing.T) {
	t.Parallel()
	// The fabric's scheduled capacity always covers the layer's MACs:
	// cycles * peak-MACs/cycle >= layer MACs (utilization <= 1).
	cfg := DefaultConfig()
	peak := int64(cfg.Ng * cfg.Nu * cfg.Nm * cfg.Nd)
	f := func(rawZ, rawM, rawS uint8) bool {
		l := nn.Layer{
			Kind: nn.Conv,
			InZ:  1 + int(rawZ%64), InY: 14, InX: 14,
			OutZ: 1 + int(rawM%64),
			KY:   3, KX: 3, Stride: 1 + int(rawS%2), Pad: 1,
		}
		m := cfg.MapLayer(l)
		return m.Cycles*peak >= l.MACs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyNoiseZeroMean(t *testing.T) {
	t.Parallel()
	// Repeated noisy evaluations of the same dot product average to
	// the ideal value: the impairments are unbiased.
	cfg := DefaultConfig()
	cfg.DisableCrosstalk = true
	p := NewPLCU(cfg)
	ideal := NewPLCU(idealConfig())
	rng := rand.New(rand.NewSource(99))
	w, a := randomSlot(rng)
	want := dot(ideal, w, a)[0]
	var sum float64
	const trials = 3000
	for i := 0; i < trials; i++ {
		sum += dot(p, w, a)[0]
	}
	mean := sum / trials
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("noisy mean %.4f should match ideal %.4f", mean, want)
	}
}
