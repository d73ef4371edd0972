package perf

import (
	"strings"
	"testing"

	"albireo/internal/core"
	"albireo/internal/nn"
)

func TestMultiChipLatencyScales(t *testing.T) {
	base := EvaluateMultiChip(core.DefaultConfig(), nn.VGG16(), 1)
	quad := EvaluateMultiChip(core.DefaultConfig(), nn.VGG16(), 4)
	speedup := base.Latency / quad.Latency
	if speedup < 2.5 || speedup > 4.01 {
		t.Errorf("4-chip speedup = %.2f, want ~3-4 (ceiling effects)", speedup)
	}
	if quad.Power < 3.9*base.Power {
		t.Error("4 chips draw 4x the power")
	}
	// Energy roughly flat: more power, less time.
	ratio := quad.Energy / base.Energy
	if ratio < 0.8 || ratio > 1.7 {
		t.Errorf("4-chip energy ratio = %.2f, want ~1", ratio)
	}
	// EDP improves with scale-out (latency falls faster than energy
	// grows).
	if quad.EDP >= base.EDP {
		t.Error("scale-out should improve EDP on large models")
	}
}

func TestMultiChipSingleEqualsEvaluate(t *testing.T) {
	a := EvaluateMultiChip(core.DefaultConfig(), nn.AlexNet(), 1)
	b := Evaluate(core.DefaultConfig(), nn.AlexNet())
	if a.Latency != b.Latency || a.Power != b.Power {
		t.Error("1-chip scale-out must equal the single-chip evaluation")
	}
	if EvaluateMultiChip(core.DefaultConfig(), nn.AlexNet(), 0).Latency != b.Latency {
		t.Error("chips < 1 should clamp to 1")
	}
}

func TestScaleOutCurve(t *testing.T) {
	curve := ScaleOutCurve(core.DefaultConfig(), nn.VGG16(), 4)
	if len(curve) != 4 {
		t.Fatal("curve length")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Latency > curve[i-1].Latency {
			t.Error("latency must be non-increasing with chips")
		}
	}
	// Strong-scaling efficiency: the achieved speedup per chip.
	eff := curve[0].Latency / curve[3].Latency / 4
	if eff <= 0.5 || eff > 1.0 {
		t.Errorf("VGG16 4-chip scaling efficiency = %.2f, want (0.5, 1]", eff)
	}
	if !strings.Contains(curve[3].Design, "x4") {
		t.Error("design label should carry the chip count")
	}
}

func TestScaleOutSmallModelSaturates(t *testing.T) {
	// MobileNet's small layers saturate: the 8-chip efficiency falls
	// below a large model's.
	eff := func(m nn.Model) float64 {
		curve := ScaleOutCurve(core.DefaultConfig(), m, 8)
		return curve[0].Latency / curve[7].Latency / 8
	}
	mob, vgg := eff(nn.MobileNet()), eff(nn.VGG16())
	if mob >= vgg {
		t.Errorf("MobileNet efficiency %.2f should trail VGG16 %.2f", mob, vgg)
	}
}
