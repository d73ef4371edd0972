package noise

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShotSigmaMatchesEq5(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	// 1 mA at 5 GHz: sqrt(2 * 1.602e-19 * 1e-3 * 5e9) = 1.266 uA.
	got := p.ShotSigma(1e-3)
	want := math.Sqrt(2 * 1.602176634e-19 * 1e-3 * 5e9)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("shot sigma = %g, want %g", got, want)
	}
	if p.ShotSigma(-1) != 0 {
		t.Error("negative current should clamp to zero shot noise")
	}
}

func TestThermalSigmaMatchesEq6(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	want := math.Sqrt(4 * 1.380649e-23 * 300 * 5e9 / 1e4)
	if math.Abs(p.ThermalSigma()-want) > 1e-15 {
		t.Errorf("thermal sigma = %g, want %g", p.ThermalSigma(), want)
	}
	// Thermal noise is independent of signal level but grows with
	// temperature and shrinks with feedback resistance.
	hot := p
	hot.Temperature = 400
	if hot.ThermalSigma() <= p.ThermalSigma() {
		t.Error("hotter TIA should be noisier")
	}
	stiff := p
	stiff.FeedbackOhms = 100e3
	if stiff.ThermalSigma() >= p.ThermalSigma() {
		t.Error("larger Rf should reduce current noise")
	}
}

func TestRINSigmaScaling(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	// RIN scales linearly with per-channel current and with sqrt(n)
	// for independent lasers.
	base := p.RINSigma(1e-3, 1)
	if math.Abs(p.RINSigma(2e-3, 1)-2*base) > 1e-15 {
		t.Error("RIN should scale linearly with current")
	}
	if math.Abs(p.RINSigma(1e-3, 4)-2*base) > 1e-15 {
		t.Error("RIN should scale with sqrt of laser count")
	}
	if p.RINSigma(1e-3, 0) != 0 || p.RINSigma(-1, 3) != 0 {
		t.Error("degenerate inputs should give zero RIN")
	}
	// -140 dBc/Hz over 5 GHz: sigma/I = sqrt(1e-14 * 5e9) = 7.07e-3.
	rel := base / 1e-3
	if math.Abs(rel-math.Sqrt(5e-5)) > 1e-12 {
		t.Errorf("relative RIN = %g, want %g", rel, math.Sqrt(5e-5))
	}
}

func TestTotalSigmaComposition(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	iPer, n := 0.5e-3, 10
	s := p.ShotSigma(iPer * float64(n))
	th := p.ThermalSigma()
	r := p.RINSigma(iPer, n)
	want := math.Sqrt(s*s + th*th + r*r)
	if math.Abs(p.TotalSigma(iPer, n)-want) > 1e-18 {
		t.Error("total sigma should be the RSS of the three sources")
	}
}

func TestSeparableLevelsMonotoneInPower(t *testing.T) {
	t.Parallel()
	// More per-channel power means more separable levels, up to the
	// RIN plateau (Figure 3's diminishing returns).
	p := DefaultParams()
	prev := 0.0
	for _, i := range []float64{1e-6, 1e-5, 1e-4, 1e-3} {
		lv := p.SeparableLevels(i, 20)
		if lv <= prev {
			t.Errorf("levels should grow with power below the RIN plateau: %g", i)
		}
		prev = lv
	}
}

func TestSeparableLevelsRINPlateau(t *testing.T) {
	t.Parallel()
	// In the RIN-dominated limit the level count saturates at
	// sqrt(n)/(k*sqrt(RIN*df)) regardless of power - the paper's
	// "diminishing returns for increasing laser power".
	p := DefaultParams()
	big := p.SeparableLevels(1, 20)     // absurdly high power
	bigger := p.SeparableLevels(10, 20) // 10x more
	if math.Abs(big-bigger)/big > 0.01 {
		t.Errorf("RIN plateau not flat: %g vs %g", big, bigger)
	}
	want := math.Sqrt(20) / (p.SeparationSigma * math.Sqrt(1e-14*5e9))
	if math.Abs(big-want)/want > 0.02 {
		t.Errorf("plateau level = %g, want %g", big, want)
	}
}

func TestFig3Anchor(t *testing.T) {
	t.Parallel()
	// Paper: "10 bits of precision is achievable with a 2 mW optical
	// laser source with as few as 20 wavelengths." With a ~5 dB
	// dot-product path loss, 2 mW delivers ~0.63 mW per channel.
	p := DefaultParams()
	iPer := 1.1 * 2e-3 * math.Pow(10, -0.5) // R * P * 5 dB loss
	bits := p.PrecisionBits(iPer, 20)
	if bits < 9 || bits > 11 {
		t.Errorf("Fig 3 anchor: got %.2f bits, want ~10", bits)
	}
}

func TestDominantSourceTransitions(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	// At microwatt-scale currents thermal noise dominates.
	if got := p.DominantSource(1e-7, 1); got != "thermal" {
		t.Errorf("low power should be thermal limited, got %s", got)
	}
	// At very high powers RIN dominates (linear in I beats sqrt(I)).
	if got := p.DominantSource(10e-3, 20); got != "rin" {
		t.Errorf("high power should be RIN limited, got %s", got)
	}
}

func TestPrecisionBitsExamples(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	// The paper's worked example: 450 separable levels is 8.81 bits,
	// which "fully supports 8 bits".
	// Find an operating point and check floor semantics instead of the
	// exact 450 - SupportedIntBits must floor PrecisionBits.
	f := func(scale float64) bool {
		i := math.Abs(math.Mod(scale, 1)) * 1e-3
		if i == 0 {
			return true
		}
		b := p.PrecisionBits(i, 20)
		return p.SupportedIntBits(i, 20) == int(math.Floor(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeparableLevelsDegenerate(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	if p.SeparableLevels(0, 20) != 1 {
		t.Error("zero power should give a single level")
	}
	if p.SeparableLevels(1e-3, 0) != 1 {
		t.Error("zero wavelengths should give a single level")
	}
	if p.SupportedIntBits(0, 0) != 0 {
		t.Error("degenerate input should support 0 bits")
	}
}

func TestSampleStatistics(t *testing.T) {
	t.Parallel()
	// The Monte Carlo sampler must reproduce TotalSigma empirically.
	p := DefaultParams()
	rng := rand.New(rand.NewSource(42))
	iPer, n := 0.2e-3, 21
	want := p.TotalSigma(iPer, n)
	const trials = 200000
	var sum, sum2 float64
	for i := 0; i < trials; i++ {
		x := p.Sample(rng, iPer, n)
		sum += x
		sum2 += x * x
	}
	mean := sum / trials
	std := math.Sqrt(sum2/trials - mean*mean)
	if math.Abs(mean) > 5*want/math.Sqrt(trials) {
		t.Errorf("sample mean %g too far from zero", mean)
	}
	if math.Abs(std-want)/want > 0.02 {
		t.Errorf("sample std %g, want %g", std, want)
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// SupportedIntBits returns the largest integer bit width fully
// supported without error: floor of PrecisionBits.
func (p Params) SupportedIntBits(iPer float64, n int) int {
	b := p.PrecisionBits(iPer, n)
	if math.IsInf(b, 1) {
		return 64
	}
	if b < 0 {
		return 0
	}
	return int(math.Floor(b))
}
