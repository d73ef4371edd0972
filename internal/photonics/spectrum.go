package photonics

import (
	"math"
)

// Spectrum is a sampled optical response: transfer (linear power
// fraction) versus wavelength. It supports the numeric measurements
// (peak finding, FWHM, extinction) used to cross-check the analytic
// device formulas and to export Figure 4a-style data.
type Spectrum struct {
	Wavelengths []float64
	Transfer    []float64
}

// SampleSpectrum evaluates fn over [lo, hi] at n points (n >= 2).
//
//lint:ignore unreachable TestNumericFWHMMatchesAnalytic measures the production MRR's FWHM with it
func SampleSpectrum(fn func(lambda float64) float64, lo, hi float64, n int) Spectrum {
	if n < 2 {
		panic("photonics: spectrum needs at least 2 samples") //lint:ignore exit-hygiene sample-count precondition; caller bug
	}
	s := Spectrum{
		Wavelengths: make([]float64, n),
		Transfer:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		l := lo + (hi-lo)*float64(i)/float64(n-1)
		s.Wavelengths[i] = l
		s.Transfer[i] = fn(l)
	}
	return s
}

// DropSpectrum samples an MRR's drop-port response across a span
// centered on its resonance.
//
//lint:ignore unreachable TestNumericFWHMMatchesAnalytic measures the production MRR's FWHM with it
func DropSpectrum(m MRR, span float64, n int) Spectrum {
	c := m.ResonantWavelength
	return SampleSpectrum(m.DropTransfer, c-span/2, c+span/2, n)
}

// Peak returns the maximum transfer and its wavelength.
//
//lint:ignore unreachable TestNumericFWHMMatchesAnalytic measures the production MRR's FWHM with it
func (s Spectrum) Peak() (lambda, transfer float64) {
	best := math.Inf(-1)
	var at float64
	for i, t := range s.Transfer {
		if t > best {
			best, at = t, s.Wavelengths[i]
		}
	}
	return at, best
}

// MeasureFWHM returns the numerically measured full width at half
// maximum around the global peak, using linear interpolation at the
// half-power crossings. It returns 0 if the response never falls to
// half maximum inside the sampled span.
//
//lint:ignore unreachable TestNumericFWHMMatchesAnalytic measures the production MRR's FWHM with it
func (s Spectrum) MeasureFWHM() float64 {
	_, peak := s.Peak()
	if peak <= 0 {
		return 0
	}
	half := peak / 2
	// Find the peak index.
	pi := 0
	for i, t := range s.Transfer {
		if t == peak {
			pi = i
			break
		}
	}
	cross := func(i, j int) float64 {
		// Interpolate the wavelength where transfer crosses half
		// between samples i and j.
		t0, t1 := s.Transfer[i], s.Transfer[j]
		if t1 == t0 {
			return s.Wavelengths[i]
		}
		f := (half - t0) / (t1 - t0)
		return s.Wavelengths[i] + f*(s.Wavelengths[j]-s.Wavelengths[i])
	}
	var left, right float64
	found := false
	for i := pi; i > 0; i-- {
		if s.Transfer[i-1] < half && s.Transfer[i] >= half {
			left = cross(i-1, i)
			found = true
			break
		}
	}
	if !found {
		return 0
	}
	found = false
	for i := pi; i < len(s.Transfer)-1; i++ {
		if s.Transfer[i] >= half && s.Transfer[i+1] < half {
			right = cross(i, i+1)
			found = true
			break
		}
	}
	if !found {
		return 0
	}
	return right - left
}

// ExtinctionDB returns the ratio of peak to minimum transfer in dB.
//
//lint:ignore unreachable TestNumericFWHMMatchesAnalytic measures the production MRR's FWHM with it
func (s Spectrum) ExtinctionDB() float64 {
	_, peak := s.Peak()
	minv := math.Inf(1)
	for _, t := range s.Transfer {
		if t < minv {
			minv = t
		}
	}
	if minv <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(peak/minv)
}

// At returns the transfer at the sample nearest to lambda.
//
//lint:ignore unreachable TestNumericFWHMMatchesAnalytic measures the production MRR's FWHM with it
func (s Spectrum) At(lambda float64) float64 {
	bestD := math.Inf(1)
	var v float64
	for i, l := range s.Wavelengths {
		if d := math.Abs(l - lambda); d < bestD {
			bestD, v = d, s.Transfer[i]
		}
	}
	return v
}
