// Package noise implements the noise sources that limit the precision
// of Albireo's analog photonic dot products (paper Section II-C.1):
// laser relative intensity noise (RIN), photodiode shot noise (Eq. 5),
// and Johnson-Nyquist thermal noise in the TIA (Eq. 6). It composes
// them into a separable-level count - the paper's "bits of precision"
// metric, log2 of the number of distinguishable optical power
// amplitudes at the output.
package noise

import (
	"math"
	"math/rand"

	"albireo/internal/units"
)

// Params holds the system parameters of the paper's noise analysis.
type Params struct {
	// Bandwidth is the detection bandwidth df in hertz (paper: 5 GHz).
	Bandwidth float64
	// Temperature is T in kelvin (paper: 300 K).
	Temperature float64
	// FeedbackOhms is the TIA feedback resistance Rf in Eq. 6.
	FeedbackOhms float64
	// RINdBcHz is the laser relative intensity noise PSD (paper:
	// -140 dBc/Hz).
	RINdBcHz float64
	// Responsivity is the PD responsivity in A/W.
	Responsivity float64
	// SeparationSigma is the number of noise standard deviations two
	// adjacent output levels must be apart to count as separable. The
	// default 1.0 reproduces the paper's Figure 3 anchor (10 bits at
	// 2 mW with ~20 wavelengths); stricter designs would use 3-6.
	SeparationSigma float64
}

// DefaultParams returns the Section II-C parameters (df = 5 GHz,
// T = 300 K, RIN = -140 dBc/Hz) with the Table II responsivity and the
// internal/photonics TIA feedback resistance.
func DefaultParams() Params {
	return Params{
		Bandwidth:       5 * units.Giga,
		Temperature:     300,
		FeedbackOhms:    10 * units.Kilo,
		RINdBcHz:        -140,
		Responsivity:    1.1,
		SeparationSigma: 1.0,
	}
}

// ShotSigma returns the standard deviation of shot-noise current for a
// mean photodiode current (Eq. 5: variance 2*qe*Ipd*df).
func (p Params) ShotSigma(ipd float64) float64 {
	if ipd < 0 {
		ipd = 0
	}
	return math.Sqrt(2 * units.ElementaryCharge * ipd * p.Bandwidth)
}

// ThermalSigma returns the standard deviation of Johnson-Nyquist
// current noise (Eq. 6: variance 4*kB*T*df/Rf).
func (p Params) ThermalSigma() float64 {
	return math.Sqrt(4 * units.Boltzmann * p.Temperature * p.Bandwidth / p.FeedbackOhms)
}

// RINSigma returns the standard deviation of the RIN-induced current
// fluctuation for n statistically independent lasers each contributing
// photocurrent iPer. Independent laser fluctuations add in variance:
// sigma = iPer * sqrt(n * RIN_linear * df).
func (p Params) RINSigma(iPer float64, n int) float64 {
	if iPer < 0 || n <= 0 {
		return 0
	}
	rin := units.DBToLinear(p.RINdBcHz)
	return iPer * math.Sqrt(float64(n)*rin*p.Bandwidth)
}

// TotalSigma composes the three independent noise sources for an
// accumulation of n wavelengths each carrying per-channel photocurrent
// iPer (so the total DC current is n*iPer).
func (p Params) TotalSigma(iPer float64, n int) float64 {
	ipd := iPer * float64(n)
	s := p.ShotSigma(ipd)
	t := p.ThermalSigma()
	r := p.RINSigma(iPer, n)
	return math.Sqrt(s*s + t*t + r*r)
}

// SeparableLevels returns the number of distinguishable output current
// amplitudes for an n-wavelength accumulation with per-channel
// full-scale photocurrent iPer: the full-scale swing divided by the
// required level separation. The result is at least 1.
func (p Params) SeparableLevels(iPer float64, n int) float64 {
	if iPer <= 0 || n <= 0 {
		return 1
	}
	sigma := p.TotalSigma(iPer, n)
	if sigma <= 0 {
		return math.Inf(1)
	}
	lv := iPer * float64(n) / (p.SeparationSigma * sigma)
	if lv < 1 {
		return 1
	}
	return lv
}

// PrecisionBits returns log2 of the separable level count - the
// paper's "bits of precision" (e.g. 450 levels -> 8.81 bits, so the
// system fully supports 8 bits).
func (p Params) PrecisionBits(iPer float64, n int) float64 {
	return units.Log2(p.SeparableLevels(iPer, n))
}

// DominantSource identifies which noise source has the largest
// standard deviation at the operating point, matching the paper's
// observation that RIN contributes the least at typical circuit powers
// and that precision grows with laser power until RIN dominates.
func (p Params) DominantSource(iPer float64, n int) string {
	s := p.ShotSigma(iPer * float64(n))
	t := p.ThermalSigma()
	r := p.RINSigma(iPer, n)
	switch {
	case r >= s && r >= t:
		return "rin"
	case s >= r && s >= t:
		return "shot"
	default:
		return "thermal"
	}
}

// Sample draws one correlated noise realization for an accumulation of
// n channels with per-channel current iPer, using rng. It is the Monte
// Carlo counterpart of TotalSigma used by the functional simulator.
//
//lint:ignore unreachable refPLCU in core's datapath_test draws its reference noise with it
func (p Params) Sample(rng *rand.Rand, iPer float64, n int) float64 {
	return rng.NormFloat64() * p.TotalSigma(iPer, n)
}
