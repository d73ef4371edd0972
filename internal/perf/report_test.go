package perf

import (
	"math"
	"testing"

	"albireo/internal/core"
	"albireo/internal/device"
	"albireo/internal/nn"
)

func TestEvaluateVGG16TableIV(t *testing.T) {
	// Table IV, VGG16 / Albireo-C: 2.55 ms, 58.1 mJ, 148.2 mJ*ms,
	// 48.8 GOPS/mm^2, 2.14 GOPS/W/mm^2.
	r := Evaluate(core.DefaultConfig(), nn.VGG16())
	if r.Latency < 2.2e-3 || r.Latency > 3.0e-3 {
		t.Errorf("latency = %.3f ms, want ~2.55", r.Latency*1e3)
	}
	if r.Energy < 50e-3 || r.Energy > 70e-3 {
		t.Errorf("energy = %.1f mJ, want ~58", r.Energy*1e3)
	}
	wantEDP := r.Energy * r.Latency
	if math.Abs(r.EDP-wantEDP) > 1e-12 {
		t.Error("EDP must be energy * latency")
	}
	if g := r.GOPSPerMM2(); g < 40 || g < 0 || g > 60 {
		t.Errorf("GOPS/mm^2 = %.1f, want ~48.8", g)
	}
	if g := r.GOPSPerWattPerMM2(); g < 1.7 || g > 2.6 {
		t.Errorf("GOPS/W/mm^2 = %.2f, want ~2.14", g)
	}
	// Active-area metric is ~431 GOPS/mm^2.
	if g := r.GOPSPerMM2Active(); g < 330 || g > 530 {
		t.Errorf("active GOPS/mm^2 = %.0f, want ~431", g)
	}
}

func TestEvaluateAlexNetTableIV(t *testing.T) {
	// Table IV, AlexNet / Albireo-C: 0.13 ms, 2.90 mJ, 0.37 mJ*ms,
	// 44.7 GOPS/mm^2.
	r := Evaluate(core.DefaultConfig(), nn.AlexNet())
	if r.Latency < 0.10e-3 || r.Latency > 0.18e-3 {
		t.Errorf("latency = %.3f ms, want ~0.13", r.Latency*1e3)
	}
	if r.Energy < 2.2e-3 || r.Energy > 4.2e-3 {
		t.Errorf("energy = %.2f mJ, want ~2.9", r.Energy*1e3)
	}
	if g := r.GOPSPerMM2(); g < 35 || g > 55 {
		t.Errorf("GOPS/mm^2 = %.1f, want ~44.7", g)
	}
}

func TestEstimateOrdering(t *testing.T) {
	// Across C -> M -> A, energy and EDP must fall monotonically for
	// every benchmark; latency falls at A (8 GHz).
	for _, m := range nn.Benchmarks() {
		cc, cm, ca := core.DefaultConfig(), core.DefaultConfig(), core.DefaultConfig()
		cm.Estimate = device.Moderate
		ca.Estimate = device.Aggressive
		rc, rm, ra := Evaluate(cc, m), Evaluate(cm, m), Evaluate(ca, m)
		if !(rc.Energy > rm.Energy && rm.Energy > ra.Energy) {
			t.Errorf("%s: energy should fall C>M>A: %g %g %g", m.Name, rc.Energy, rm.Energy, ra.Energy)
		}
		if !(rc.EDP > rm.EDP && rm.EDP > ra.EDP) {
			t.Errorf("%s: EDP should fall C>M>A", m.Name)
		}
		if rc.Latency != rm.Latency {
			t.Errorf("%s: C and M share the 5 GHz rate", m.Name)
		}
		if ra.Latency >= rc.Latency {
			t.Errorf("%s: A at 8 GHz must be faster", m.Name)
		}
	}
}

func TestMAEstimatesMatchTableIV(t *testing.T) {
	// Table IV: VGG16 Albireo-M energy 15.7 mJ, Albireo-A 2.56 mJ and
	// 1.60 ms.
	cm, ca := core.DefaultConfig(), core.DefaultConfig()
	cm.Estimate = device.Moderate
	ca.Estimate = device.Aggressive
	rm := Evaluate(cm, nn.VGG16())
	ra := Evaluate(ca, nn.VGG16())
	if rm.Energy < 13e-3 || rm.Energy > 19e-3 {
		t.Errorf("Albireo-M VGG16 energy = %.1f mJ, want ~15.7", rm.Energy*1e3)
	}
	if ra.Latency < 1.4e-3 || ra.Latency > 1.9e-3 {
		t.Errorf("Albireo-A VGG16 latency = %.2f ms, want ~1.60", ra.Latency*1e3)
	}
	if ra.Energy < 2.0e-3 || ra.Energy > 3.2e-3 {
		t.Errorf("Albireo-A VGG16 energy = %.2f mJ, want ~2.56", ra.Energy*1e3)
	}
}

func TestEvaluateLayers(t *testing.T) {
	lrs := EvaluateLayers(core.DefaultConfig(), nn.VGG16())
	if len(lrs) != 16 {
		t.Fatalf("VGG16 per-layer analysis should have 16 rows, got %d", len(lrs))
	}
	var totalLat float64
	for _, lr := range lrs {
		if lr.Cycles <= 0 || lr.Latency <= 0 || lr.Energy <= 0 {
			t.Errorf("%s: non-positive layer metrics", lr.Layer.Name)
		}
		totalLat += lr.Latency
	}
	full := Evaluate(core.DefaultConfig(), nn.VGG16())
	if math.Abs(totalLat-full.Latency)/full.Latency > 1e-9 {
		t.Error("per-layer latencies must sum to the model latency")
	}
}

func TestResultDegenerateMetrics(t *testing.T) {
	var r Result
	if r.GOPS() != 0 || r.GOPSPerMM2() != 0 || r.GOPSPerWattPerMM2() != 0 ||
		r.GOPSPerMM2Active() != 0 || r.GOPSPerWattPerMM2Active() != 0 {
		t.Error("zero result should yield zero rates, not NaN")
	}
}
