// Package photonics implements analytic models of the silicon photonic
// devices that make up the Albireo accelerator: waveguides, Y-branches,
// Mach-Zehnder modulators (MZM), double-bus microring resonators (MRR),
// star couplers, arrayed waveguide gratings (AWG), lasers, PIN
// photodiodes, transimpedance amplifiers, and data converters.
//
// These models substitute for the paper's use of the commercial
// Lumerical INTERCONNECT simulator. They implement the standard
// transfer-matrix / coupled-mode formulas (Bogaerts et al. 2012, cited
// by the paper) that INTERCONNECT itself evaluates, so the scalar
// characteristics the paper consumes - insertion loss, drop-port
// spectra, FSR/FWHM/finesse, temporal rolloff, crosstalk - are
// reproduced directly.
//
// Conventions: optical power in watts, wavelengths in meters, losses in
// dB (positive numbers). Signals are non-negative power amplitudes; the
// architecture encodes operands in power, not field phase (Section II-B).
package photonics

import (
	"fmt"

	"albireo/internal/units"
)

// Waveguide models a silicon strip waveguide with propagation loss.
type Waveguide struct {
	// NEff is the effective refractive index.
	NEff float64
	// NGroup is the group refractive index.
	NGroup float64
	// LossDBPerM is the propagation loss in dB per meter.
	LossDBPerM float64
}

// BentWaveguide returns the Table II bent waveguide (3.8 dB/cm).
func BentWaveguide() Waveguide {
	return Waveguide{NEff: 2.33, NGroup: 4.68, LossDBPerM: 380}
}

// Transmission returns the power transmission fraction over the given
// length in meters.
func (w Waveguide) Transmission(length float64) float64 {
	return units.LossDBToTransmission(w.LossDBPerM * length)
}

// AmplitudeTransmission returns the single-pass field amplitude factor
// a over length, where a^2 is the power transmission (a^2 = e^{-alpha L}
// in the paper's notation under Eq. 9).
func (w Waveguide) AmplitudeTransmission(length float64) float64 {
	return sqrt(w.Transmission(length))
}

// String implements fmt.Stringer for debugging output.
func (w Waveguide) String() string {
	return fmt.Sprintf("waveguide{neff=%.2f ng=%.2f loss=%.1f dB/cm}", w.NEff, w.NGroup, w.LossDBPerM/100)
}
