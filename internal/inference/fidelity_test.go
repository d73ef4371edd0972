package inference

import (
	"math"
	"testing"

	"albireo/internal/core"
	"albireo/internal/tensor"
)

// relRMS is RMS(got-want)/RMS(want).
func relRMS(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

// TestLiveTapLayersFidelity runs a ResNet18-shaped stack at quarter
// width on an 8x8 input - the shapes of the benchmark's resnet-cnn -
// through a seeded default chip, feeding every layer the exact
// activations, and compares each chip call with Exact. The strided 1x1
// projections and the stage-4 convs (four live taps, or only the
// centre tap on a 1x1 input) run on the pointwise layout; each must be
// at most 1.5x the mean error of the stack's 3x3 stride-1 layers.
// Mapped as one live tap per nine waveguides, they used at most a
// ninth of the ADC range and were 2-3x worse.
func TestLiveTapLayersFidelity(t *testing.T) {
	type layer struct {
		name           string
		m, k           int
		stride, pad    int
		rerouted, next bool // next: the output feeds the following layer
	}
	stack := []layer{
		{"stem", 16, 3, 1, 1, false, true},
		{"s1_conv1", 16, 3, 1, 1, false, true},
		{"s1_conv2", 16, 3, 1, 1, false, false},
		{"s2_proj", 32, 1, 2, 0, true, false},
		{"s2_conv1", 32, 3, 2, 1, false, true},
		{"s2_conv2", 32, 3, 1, 1, false, true},
		{"s2_b2_conv1", 32, 3, 1, 1, false, true},
		{"s3_proj", 64, 1, 2, 0, true, false},
		{"s3_conv1", 64, 3, 2, 1, false, true},
		{"s3_conv2", 64, 3, 1, 1, false, true},
		{"s4_proj", 128, 1, 2, 0, true, false},
		{"s4_conv1", 128, 3, 2, 1, true, true},
		{"s4_conv2", 128, 3, 1, 1, true, true},
		{"s4_b2_conv1", 128, 3, 1, 1, true, true},
	}
	chip := NewAnalog(core.DefaultConfig())
	x := tensor.RandomVolume(3, 8, 8, 11)
	var base []float64
	errs := map[string]float64{}
	for i, l := range stack {
		w := tensor.RandomKernels(l.m, x.Z, l.k, l.k, int64(100+i))
		cfg := tensor.ConvConfig{Stride: l.stride, Pad: l.pad}
		relu := l.k != 1 // the projections add into the residual before its ReLU
		want := Exact{}.Conv(x, w, cfg, relu)
		errs[l.name] = relRMS(chip.Conv(x, w, cfg, relu).Data, want.Data)
		if !l.rerouted && l.k == 3 && l.stride == 1 {
			base = append(base, errs[l.name])
		}
		if l.next {
			x = want
		}
	}
	var mean float64
	for _, e := range base {
		mean += e / float64(len(base))
	}
	for _, l := range stack {
		t.Logf("%-12s rel-RMS %.3f", l.name, errs[l.name])
		if l.rerouted && errs[l.name] > 1.5*mean {
			t.Errorf("%s: rel-RMS %.3f, want <= 1.5x the 3x3 stride-1 mean %.3f", l.name, errs[l.name], mean)
		}
	}
}
