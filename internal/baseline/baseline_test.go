package baseline

import (
	"math"
	"testing"

	"albireo/internal/core"
	"albireo/internal/nn"
	"albireo/internal/perf"
)

func TestDEAPPowerNear60W(t *testing.T) {
	d := NewDEAPCNN()
	// 2034 DACs at 26 mW dominate: ~59.5 W total, the Section IV-A
	// 60 W scaling point.
	p := d.Power()
	if p < 57 || p > 61 {
		t.Errorf("DEAP-CNN power = %.1f W, want ~59.5", p)
	}
}

func TestPIXELScaling(t *testing.T) {
	p := NewPIXEL()
	// One OMAC draws ~8 W (128 converter lanes at 10 GS/s); 7 fit the
	// budget.
	up := p.UnitPower()
	if up < 7 || up > 9 {
		t.Errorf("PIXEL unit power = %.2f W, want ~8", up)
	}
	if u := p.Units(); u < 6 || u > 8 {
		t.Errorf("PIXEL units = %d, want ~7", u)
	}
	if p.Power() > p.PowerBudget {
		t.Error("scaled PIXEL must stay within the budget")
	}
}

func TestFig8LatencyRatios(t *testing.T) {
	// Section IV-B reports (average over the four CNNs):
	//   Albireo-9 vs PIXEL:     ~79.5x  | vs DEAP-CNN: ~1.7x
	//   Albireo-27 vs PIXEL:    ~225x   | vs DEAP-CNN: ~4.8x
	deap := NewDEAPCNN()
	pixel := NewPIXEL()
	var rPix9, rDeap9, rPix27, rDeap27 float64
	n := 0.0
	for _, m := range nn.Benchmarks() {
		a9 := perf.Evaluate(core.DefaultConfig(), m)
		a27 := perf.Evaluate(core.Albireo27(), m)
		dp := deap.Evaluate(m)
		px := pixel.Evaluate(m)
		rPix9 += px.Latency / a9.Latency
		rDeap9 += dp.Latency / a9.Latency
		rPix27 += px.Latency / a27.Latency
		rDeap27 += dp.Latency / a27.Latency
		n++
	}
	rPix9 /= n
	rDeap9 /= n
	rPix27 /= n
	rDeap27 /= n
	if rPix9 < 40 || rPix9 > 160 {
		t.Errorf("Albireo-9 vs PIXEL latency ratio = %.1f, want ~79.5", rPix9)
	}
	// Per-model ratios are ~1.7 for AlexNet/VGG16/ResNet18; MobileNet's
	// depthwise layers push the mean up (see EXPERIMENTS.md).
	if rDeap9 < 1.2 || rDeap9 > 3.6 {
		t.Errorf("Albireo-9 vs DEAP latency ratio = %.2f, want ~1.7-2.8", rDeap9)
	}
	if rPix27 < 120 || rPix27 > 450 {
		t.Errorf("Albireo-27 vs PIXEL latency ratio = %.1f, want ~225", rPix27)
	}
	if rDeap27 < 3.5 || rDeap27 > 11 {
		t.Errorf("Albireo-27 vs DEAP latency ratio = %.2f, want ~4.8-8", rDeap27)
	}
}

func TestFig8EDPRatios(t *testing.T) {
	// Albireo-27 reduces EDP by ~50,957x vs PIXEL and ~23.9x vs DEAP.
	deap := NewDEAPCNN()
	pixel := NewPIXEL()
	var edpPix, edpDeap float64
	n := 0.0
	for _, m := range nn.Benchmarks() {
		a27 := perf.Evaluate(core.Albireo27(), m)
		edpPix += pixel.Evaluate(m).EDP / a27.EDP
		edpDeap += deap.Evaluate(m).EDP / a27.EDP
		n++
	}
	edpPix /= n
	edpDeap /= n
	if edpPix < 15e3 || edpPix > 150e3 {
		t.Errorf("EDP ratio vs PIXEL = %.0f, want ~50957", edpPix)
	}
	if edpDeap < 15 || edpDeap > 150 {
		t.Errorf("EDP ratio vs DEAP = %.1f, want ~24-100", edpDeap)
	}
}

func TestWDMEfficiency(t *testing.T) {
	// Albireo has ~30.9x better WDM efficiency than DEAP-CNN and
	// ~1680x better than PIXEL (Section IV-B).
	deap := NewDEAPCNN().Evaluate(nn.VGG16())
	pixel := NewPIXEL().Evaluate(nn.VGG16())
	a27 := perf.Evaluate(core.Albireo27(), nn.VGG16())
	albWDM := a27.Energy / 63 // 63 distribution wavelengths
	if r := deap.WDMEfficiency() / albWDM; r < 10 || r > 90 {
		t.Errorf("WDM efficiency ratio vs DEAP = %.1f, want ~30.9", r)
	}
	if r := pixel.WDMEfficiency() / albWDM; r < 500 || r > 5000 {
		t.Errorf("WDM efficiency ratio vs PIXEL = %.0f, want ~1680", r)
	}
	var zero Result
	if !math.IsInf(zero.WDMEfficiency(), 1) {
		t.Error("zero wavelengths should give infinite energy/wavelength")
	}
}

func TestDEAPLayerCycles(t *testing.T) {
	d := NewDEAPCNN()
	// A 3x3x64 conv layer with 56x56x256 output: one pass.
	l := nn.Layer{Kind: nn.Conv, InZ: 64, InY: 56, InX: 56, OutZ: 256, KY: 3, KX: 3, Stride: 1, Pad: 1}
	if got := d.LayerCycles(l); got != 56*56*256 {
		t.Errorf("one-pass conv cycles = %d, want %d", got, 56*56*256)
	}
	// 256 channels exceed the 113 limit: 3 passes.
	l.InZ = 256
	if got := d.LayerCycles(l); got != 56*56*256*3 {
		t.Errorf("deep conv cycles = %d, want 3 passes", got)
	}
	// Pooling costs nothing.
	if d.LayerCycles(nn.Layer{Kind: nn.MaxPoolKind, InZ: 4, InY: 8, InX: 8, OutZ: 4, KY: 2, KX: 2, Stride: 2}) != 0 {
		t.Error("pooling should cost no DEAP cycles")
	}
	// FC: 1017 elements per cycle.
	fc := nn.Layer{Kind: nn.FC, InZ: 4096, InY: 1, InX: 1, OutZ: 1000, KY: 1, KX: 1}
	if got := d.LayerCycles(fc); got != 1000*5 { // ceil(4096/1017)=5
		t.Errorf("FC cycles = %d, want 5000", got)
	}
}

func TestElectronicReported(t *testing.T) {
	rows := Reported()
	if len(rows) != 6 {
		t.Fatalf("expected 6 reported rows, got %d", len(rows))
	}
	// Spot-check against Table IV.
	alex := ReportedFor("AlexNet")
	if len(alex) != 3 {
		t.Fatal("3 electronic baselines for AlexNet")
	}
	for _, r := range alex {
		if r.Accelerator == "UNPU" {
			if math.Abs(r.Latency-2.89e-3) > 1e-9 || math.Abs(r.Energy-0.84e-3) > 1e-9 {
				t.Error("UNPU AlexNet row mismatch with Table IV")
			}
		}
		// EDP consistency within rounding of the published numbers.
		if r.EDP <= 0 || math.Abs(r.EDP-r.Latency*r.Energy)/r.EDP > 0.05 {
			t.Errorf("%s/%s: EDP inconsistent with latency*energy", r.Accelerator, r.Model)
		}
	}
	if len(ReportedFor("ResNet18")) != 0 {
		t.Error("no published electronic rows for ResNet18")
	}
}

func TestTableIVSpeedups(t *testing.T) {
	// "Albireo-C improves latency by 110x on average" vs the three
	// electronic accelerators (AlexNet + VGG16 rows).
	var ratio float64
	n := 0.0
	for _, model := range []string{"AlexNet", "VGG16"} {
		m, _ := nn.ByName(model)
		alb := perf.Evaluate(core.DefaultConfig(), m)
		for _, r := range ReportedFor(model) {
			ratio += r.Latency / alb.Latency
			n++
		}
	}
	avg := ratio / n
	if avg < 60 || avg > 200 {
		t.Errorf("average electronic latency speedup = %.0f, want ~110", avg)
	}
}

func TestBaselineStrings(t *testing.T) {
	if NewDEAPCNN().Evaluate(nn.AlexNet()).String() == "" {
		t.Error("result String")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// WDMEfficiency returns energy per wavelength used (J/wavelength),
// lower is better - the paper's combination metric for how well an
// architecture exploits WDM.
func (r Result) WDMEfficiency() float64 {
	if r.Wavelengths <= 0 {
		return math.Inf(1)
	}
	return r.Energy / float64(r.Wavelengths)
}
