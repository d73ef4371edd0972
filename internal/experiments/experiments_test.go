package experiments

import (
	"math"
	"strings"
	"testing"

	"albireo/internal/core"
	"albireo/internal/device"
)

func TestFig3ShapeAndAnchor(t *testing.T) {
	rows := Fig3()
	if len(rows) == 0 {
		t.Fatal("Fig3 should produce rows")
	}
	// Anchor: 2 mW at 20 wavelengths gives ~10 bits (Section II-C.1).
	var anchor *Fig3Row
	byPower := map[float64][]Fig3Row{}
	for i, r := range rows {
		byPower[r.LaserPower] = append(byPower[r.LaserPower], r)
		if r.LaserPower == 2e-3 && r.Wavelengths == 20 {
			anchor = &rows[i]
		}
	}
	if anchor == nil {
		t.Fatal("missing 2 mW / 20 wavelength point")
	}
	if anchor.Bits < 9 || anchor.Bits > 11 {
		t.Errorf("anchor precision = %.2f bits, want ~10", anchor.Bits)
	}
	// More laser power never hurts at fixed wavelength count, and the
	// gain shrinks (diminishing returns).
	p05, p1, p2, p4 := byPower[0.5e-3], byPower[1e-3], byPower[2e-3], byPower[4e-3]
	for i := range p05 {
		if !(p05[i].Bits <= p1[i].Bits+1e-9 && p1[i].Bits <= p2[i].Bits+1e-9 && p2[i].Bits <= p4[i].Bits+1e-9) {
			t.Fatalf("precision must be monotone in laser power at n=%d", p05[i].Wavelengths)
		}
	}
	gainLow := p1[9].Bits - p05[9].Bits
	gainHigh := p4[9].Bits - p2[9].Bits
	if gainHigh > gainLow {
		t.Errorf("doubling power should show diminishing returns: %+.3f then %+.3f bits", gainLow, gainHigh)
	}
}

func TestFig4aOrdering(t *testing.T) {
	k2s := []float64{0.02, 0.03, 0.05}
	f := Fig4a(k2s, 2e-9, 41)
	rows := f.Spectrum
	if len(rows) != 3*41 {
		t.Fatal("row count")
	}
	// At a fixed off-resonance detuning, lower k^2 suppresses more.
	at := func(k2 float64) float64 {
		for _, r := range rows {
			if r.K2 == k2 && r.DetuneNM > 0.79 && r.DetuneNM < 0.81 {
				return r.DropDB
			}
		}
		t.Fatal("missing detune point")
		return 0
	}
	if !(at(0.02) < at(0.03) && at(0.03) < at(0.05)) {
		t.Error("off-resonance suppression should improve as k^2 falls")
	}
	if len(f.Rings) != 3 || FormatFig4a(f) == "" {
		t.Error("format")
	}
}

// TestK2RiseMatchesFig4b: the k^2 design space and Figure 4b price a
// ring's rise time with the one definition, so the rings both tables
// share read the same bits.
func TestK2RiseMatchesFig4b(t *testing.T) {
	fig := Fig4b([]float64{0.02, 0.03}, []float64{5e9})
	for _, r := range K2Sweep() {
		for _, f := range fig {
			if r.K2 == f.K2 && math.Float64bits(r.RisePS) != math.Float64bits(f.RiseTimePS) {
				t.Errorf("k2 %g: k2 entry rise %v ps, fig4b %v ps", r.K2, r.RisePS, f.RiseTimePS)
			}
		}
	}
}

func TestFig4bShape(t *testing.T) {
	rows := Fig4b([]float64{0.02, 0.03}, []float64{5e9, 40e9})
	if len(rows) != 4 {
		t.Fatal("row count")
	}
	get := func(k2, rate float64) Fig4bRow {
		for _, r := range rows {
			if r.K2 == k2 && r.SymbolRate == rate {
				return r
			}
		}
		t.Fatal("missing row")
		return Fig4bRow{}
	}
	// k2=0.02 rings are slower.
	if get(0.02, 5e9).RiseTimePS <= get(0.03, 5e9).RiseTimePS {
		t.Error("k2=0.02 should rise slower")
	}
	// Eyes close as the rate rises, k2=0.02 first.
	if get(0.02, 40e9).EyeOpening >= get(0.02, 5e9).EyeOpening {
		t.Error("eye must close at higher rates")
	}
	if get(0.02, 40e9).EyeOpening > get(0.03, 40e9).EyeOpening {
		t.Error("k2=0.02 eye should be worse at 40 GHz")
	}
	if FormatFig4b(rows) == "" {
		t.Error("format")
	}
}

func TestFig4cAnchors(t *testing.T) {
	rows := Fig4c([]float64{0.02, 0.03}, 40)
	get := func(k2 float64, n int) Fig4cRow {
		for _, r := range rows {
			if r.K2 == k2 && r.Wavelengths == n {
				return r
			}
		}
		t.Fatal("missing row")
		return Fig4cRow{}
	}
	// Section II-C.2 anchors.
	if b := get(0.03, 20).Bits; b < 5.5 || b > 7 {
		t.Errorf("k2=0.03 @ 20: %.2f bits, want ~6", b)
	}
	if d := get(0.03, 20).DiffBits; d < 6.5 || d > 8 {
		t.Errorf("k2=0.03 @ 20 differential: %.2f bits, want ~7", d)
	}
	if b := get(0.02, 8).Bits; b < 8 {
		t.Errorf("k2=0.02 @ 8: %.2f bits, want >= 8", b)
	}
	// Precision falls with wavelength count.
	if get(0.03, 40).Bits >= get(0.03, 10).Bits {
		t.Error("precision must fall as channels densify")
	}
	if FormatFig4c(rows) == "" {
		t.Error("format")
	}
}

func TestFig8Rows(t *testing.T) {
	rows := Fig8()
	if len(rows) != 16 { // 4 models x 4 designs
		t.Fatalf("Fig8 rows = %d, want 16", len(rows))
	}
	// For every model: PIXEL slowest, Albireo-27 fastest.
	byModel := map[string]map[string]Fig8Row{}
	for _, r := range rows {
		if byModel[r.Model] == nil {
			byModel[r.Model] = map[string]Fig8Row{}
		}
		byModel[r.Model][r.Design] = r
	}
	for model, designs := range byModel {
		if len(designs) != 4 {
			t.Fatalf("%s: expected 4 designs", model)
		}
		if designs["PIXEL"].Latency <= designs["DEAP-CNN"].Latency {
			t.Errorf("%s: PIXEL should be slower than DEAP-CNN", model)
		}
		if designs["DEAP-CNN"].Latency <= designs["Albireo-9"].Latency {
			t.Errorf("%s: DEAP-CNN should be slower than Albireo-9", model)
		}
		if designs["Albireo-9"].Latency <= designs["Albireo-27"].Latency {
			t.Errorf("%s: Albireo-27 should be fastest", model)
		}
	}
	out := FormatFig8(rows)
	if !strings.Contains(out, "VGG16") || !strings.Contains(out, "Albireo-27") {
		t.Error("formatted Fig8 should mention designs and models")
	}
}

func TestFig9Fractions(t *testing.T) {
	rows := Fig9(core.DefaultConfig())
	var total float64
	frac := map[string]float64{}
	for _, r := range rows {
		total += r.Fraction
		frac[r.Component] = r.Fraction
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("fractions sum to %.4f, want 1", total)
	}
	if frac["AWG"] < 0.68 || frac["AWG"] > 0.76 {
		t.Errorf("AWG fraction %.2f, want ~0.72", frac["AWG"])
	}
	if frac["StarCoupler"] < 0.14 || frac["StarCoupler"] > 0.20 {
		t.Errorf("star coupler fraction %.2f, want ~0.17", frac["StarCoupler"])
	}
	if FormatFig9(rows) == "" {
		t.Error("format")
	}
}

func TestTableFormats(t *testing.T) {
	if !strings.Contains(FormatTableI(TableI()), "MZM") {
		t.Error("Table I should list devices")
	}
	if !strings.Contains(FormatTableII(device.Optics()), "RIN") {
		t.Error("Table II should list optical parameters")
	}
	t3 := FormatTableIII(TableIII(core.DefaultConfig()))
	if !strings.Contains(t3, "Total") || !strings.Contains(t3, "DAC") {
		t.Error("Table III should include totals")
	}
	rows := TableIV()
	if len(rows) != 12 { // 2 models x (3 reported + 3 Albireo)
		t.Fatalf("Table IV rows = %d, want 12", len(rows))
	}
	var reported int
	for _, r := range rows {
		if r.Reported {
			reported++
		}
	}
	if reported != 6 {
		t.Errorf("reported rows = %d, want 6", reported)
	}
	if !strings.Contains(FormatTableIV(rows), "[reported]") {
		t.Error("Table IV should tag reported rows")
	}
}

func TestFig3Format(t *testing.T) {
	out := FormatFig3(Fig3())
	if !strings.Contains(out, "dominant") {
		t.Error("Fig3 format")
	}
}
