package photonics

import (
	"albireo/internal/units"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestPhotodiodeCurrent(t *testing.T) {
	pd := NewPhotodiode()
	// 1 mW at 1.1 A/W gives 1.1 mA plus negligible dark current.
	got := pd.Current(1e-3)
	if math.Abs(got-1.1e-3) > 1e-9 {
		t.Errorf("Current(1mW) = %g, want ~1.1 mA", got)
	}
	// Dark current alone for zero light.
	if got := pd.Current(0); math.Abs(got-25e-12) > 1e-18 {
		t.Errorf("dark current = %g, want 25 pA", got)
	}
	// Negative power is clamped (physically impossible input).
	if pd.Current(-1) != pd.Current(0) {
		t.Error("negative power should clamp to zero")
	}
}

func TestBalancedPDSubtraction(t *testing.T) {
	b := NewBalancedPD()
	// Eq. 4: equal powers cancel exactly (matched responsivities and
	// dark currents).
	if got := b.Current(1e-3, 1e-3); math.Abs(got) > 1e-15 {
		t.Errorf("balanced inputs should cancel, got %g", got)
	}
	// Positive-dominant input yields positive current and vice versa.
	if b.Current(2e-3, 1e-3) <= 0 {
		t.Error("P+ > P- should give positive current")
	}
	if b.Current(1e-3, 2e-3) >= 0 {
		t.Error("P- > P+ should give negative current")
	}
}

func TestBalancedPDLinearity(t *testing.T) {
	b := NewBalancedPD()
	f := func(p, n float64) bool {
		p, n = math.Abs(math.Mod(p, 1e-2)), math.Abs(math.Mod(n, 1e-2))
		want := 1.1 * (p - n)
		return math.Abs(b.Current(p, n)-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDACQuantize(t *testing.T) {
	d := NewDAC(5e9)
	if d.Levels() != 256 {
		t.Fatal("8-bit DAC should have 256 levels")
	}
	// Endpoints are exact.
	if d.Quantize(0) != 0 || d.Quantize(1) != 1 {
		t.Error("endpoints should be representable")
	}
	// Out-of-range clips.
	if d.Quantize(-0.5) != 0 || d.Quantize(1.5) != 1 {
		t.Error("out-of-range inputs should clip")
	}
	// Quantization error is bounded by half an LSB.
	lsb := 1.0 / 255
	f := func(x float64) bool {
		x = math.Abs(math.Mod(x, 1))
		return math.Abs(d.Quantize(x)-x) <= lsb/2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDACCode(t *testing.T) {
	d := NewDAC(5e9)
	if d.Code(0) != 0 || d.Code(1) != 255 {
		t.Error("codes should span 0..255")
	}
	if d.Code(0.5) != 128 && d.Code(0.5) != 127 {
		t.Errorf("mid-scale code = %d, want 127 or 128", d.Code(0.5))
	}
}

func TestADCQuantize(t *testing.T) {
	a := ADC{Bits: 8, SampleRate: 5e9}
	fs := 2.0
	// Zero is exact; rails clip.
	if a.Quantize(0, fs) != 0 {
		t.Error("zero should be representable")
	}
	if a.Quantize(5, fs) != fs || a.Quantize(-5, fs) != -fs {
		t.Error("inputs beyond full scale should clip to the rails")
	}
	// Quantization error bounded by half an LSB.
	half := fs / float64(a.Levels()/2-1) / 2
	f := func(x float64) bool {
		x = math.Mod(x, fs)
		return math.Abs(a.Quantize(x, fs)-x) <= half+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Degenerate full scale.
	if a.Quantize(1, 0) != 0 {
		t.Error("non-positive full scale should return 0")
	}
}

func TestADCSymmetry(t *testing.T) {
	a := ADC{Bits: 8, SampleRate: 5e9}
	f := func(x float64) bool {
		x = math.Mod(x, 1)
		return math.Abs(a.Quantize(x, 1)+a.Quantize(-x, 1)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConverterStrings(t *testing.T) {
	if (ADC{Bits: 8, SampleRate: 5e9}).String() == "" || NewDAC(5e9).String() == "" {
		t.Error("converters should describe themselves")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// Current returns the photocurrent for the given total incident
// optical power, including dark current.
func (p Photodiode) Current(power float64) float64 {
	if power < 0 {
		power = 0
	}
	return p.Responsivity*power + p.DarkCurrent
}

// BalancedPD is the balanced photodiode pair of Eq. 4: PD0 detects the
// positively-weighted accumulation waveguide, PD1 the negative one, and
// the output is the current difference
//
//	Iout = R0 * sum(P+) - R1 * sum(P-).
//
// R0 = R1 for all designs in the paper.
type BalancedPD struct {
	Positive Photodiode
	Negative Photodiode
}

// NewBalancedPD returns a matched pair of Table II photodiodes.
func NewBalancedPD() BalancedPD {
	return BalancedPD{Positive: NewPhotodiode(), Negative: NewPhotodiode()}
}

// Current returns the differential output current for the given total
// powers on the positive and negative accumulation waveguides. The
// matched dark currents cancel in the difference.
func (b BalancedPD) Current(pPos, pNeg float64) float64 {
	return b.Positive.Current(pPos) - b.Negative.Current(pNeg)
}

// DAC models the 8-bit digital-to-analog converter that drives the
// modulators (Section IV-A: 8-bit, 5 GS/s conservative/moderate,
// 8 GS/s aggressive). The converter quantizes a normalized value in
// [0, 1] onto its output grid.
type DAC struct {
	// Bits is the converter resolution.
	Bits int
	// SampleRate is in samples per second; it bounds the photonic
	// modulation rate.
	SampleRate float64
}

// NewDAC returns the paper's 8-bit converter at the given rate.
func NewDAC(rate float64) DAC { return DAC{Bits: 8, SampleRate: rate} }

// Levels returns the number of output levels, 2^Bits.
func (d DAC) Levels() int { return 1 << uint(d.Bits) }

// Quantize maps x in [0, 1] to the nearest representable level and
// returns the reconstructed analog value. Out-of-range inputs clip.
func (d DAC) Quantize(x float64) float64 {
	n := float64(d.Levels() - 1)
	q := math.Round(clamp(x, 0, 1) * n)
	return q / n
}

// Code returns the integer code for x in [0, 1], clipping out-of-range
// inputs.
func (d DAC) Code(x float64) int {
	n := float64(d.Levels() - 1)
	return int(math.Round(clamp(x, 0, 1) * n))
}

// String implements fmt.Stringer.
func (d DAC) String() string {
	return fmt.Sprintf("dac{%d bit @ %.0f GS/s}", d.Bits, d.SampleRate/units.Giga)
}
