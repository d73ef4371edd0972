package photonics

import (
	"math"
	"testing"

	"albireo/internal/units"
)

func TestNumericFWHMMatchesAnalytic(t *testing.T) {
	// The numerically measured FWHM of the sampled drop response must
	// match Eq. 9 - the cross-check between the spectrum machinery and
	// the analytic model.
	for _, k2 := range []float64{0.02, 0.03, 0.05} {
		m := NewMRRWithK2(c1550, k2)
		s := DropSpectrum(m, 4*m.FWHM(), 4001)
		got := s.MeasureFWHM()
		want := m.FWHM()
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("k2=%.2f: numeric FWHM %.4g, analytic %.4g", k2, got, want)
		}
	}
}

func TestSpectrumPeakAtResonance(t *testing.T) {
	m := NewMRR(c1550)
	s := DropSpectrum(m, 2*units.Nano, 2001)
	at, peak := s.Peak()
	if math.Abs(at-c1550) > 2e-12 {
		t.Errorf("peak at %.4f nm, want 1550", at*1e9)
	}
	if math.Abs(peak-m.DropTransfer(c1550)) > 1e-12 {
		t.Error("peak value should match the analytic transfer")
	}
}

func TestSpectrumExtinction(t *testing.T) {
	m := NewMRR(c1550)
	s := DropSpectrum(m, 8*units.Nano, 4001)
	// Drop-port extinction over +-4 nm is tens of dB.
	ext := s.ExtinctionDB()
	if ext < 20 || ext > 60 {
		t.Errorf("extinction %.1f dB outside plausible window", ext)
	}
}

func TestSpectrumAt(t *testing.T) {
	s := SampleSpectrum(func(l float64) float64 { return l }, 0, 10, 11)
	if s.At(3.2) != 3 {
		t.Errorf("nearest sample to 3.2 should be 3, got %g", s.At(3.2))
	}
	if s.At(100) != 10 {
		t.Error("beyond-range queries clamp to the nearest edge")
	}
}

func TestSpectrumDegenerate(t *testing.T) {
	// FWHM undefined when the response never falls to half max.
	flat := SampleSpectrum(func(float64) float64 { return 1 }, 0, 1, 11)
	if flat.MeasureFWHM() != 0 {
		t.Error("flat spectrum has no FWHM")
	}
	zero := SampleSpectrum(func(float64) float64 { return 0 }, 0, 1, 11)
	if zero.MeasureFWHM() != 0 {
		t.Error("zero spectrum has no FWHM")
	}
	defer func() {
		if recover() == nil {
			t.Error("1-point spectrum should panic")
		}
	}()
	SampleSpectrum(func(float64) float64 { return 0 }, 0, 1, 1)
}

func TestHalfWidthSymmetry(t *testing.T) {
	// The Lorentzian drop response is symmetric: the two half-power
	// crossings sit equidistant from the resonance.
	m := NewMRR(c1550)
	s := DropSpectrum(m, 4*m.FWHM(), 8001)
	_, peak := s.Peak()
	half := peak / 2
	var left, right float64
	for i := 1; i < len(s.Transfer); i++ {
		if s.Transfer[i-1] < half && s.Transfer[i] >= half {
			left = s.Wavelengths[i]
		}
		if s.Transfer[i-1] >= half && s.Transfer[i] < half {
			right = s.Wavelengths[i]
		}
	}
	dl := c1550 - left
	dr := right - c1550
	if math.Abs(dl-dr)/dl > 0.02 {
		t.Errorf("half-power crossings asymmetric: %.4g vs %.4g", dl, dr)
	}
}
