package photonics

import (
	"fmt"

	"albireo/internal/units"
)

// MZM models the Mach-Zehnder modulator used for optical
// multiplication (paper Section II-B.1, Figure 2a).
//
// The upper arm applies a differential phase shift dphi in [0, pi]
// through the plasma dispersion effect; destructive interference at the
// output Y-branch scales the optical power:
//
//	Pout = Pin/2 + (Pin/2)*cos(dphi)        (paper Eq. 2)
//
// dphi = 0 multiplies by 1, dphi = pi multiplies by 0. An MZM is
// wavelength independent for balanced arms, so one MZM multiplies every
// WDM channel on its input waveguide by the same weight - the physical
// basis of parameter sharing in the PLCU.
type MZM struct {
	// InsertionLossDB is the device insertion loss (Table II: 1.2 dB).
	InsertionLossDB float64
}

// NewMZM returns an MZM with the Table II insertion loss.
func NewMZM() MZM {
	return MZM{InsertionLossDB: 1.2}
}

// Transfer returns the ideal (lossless) power transfer for a
// differential phase shift dphi in radians, following Eq. 2. Values
// outside [0, pi] are clamped, matching the physical drive range.
func (m MZM) Transfer(dphi float64) float64 {
	dphi = clamp(dphi, 0, pi)
	return 0.5 + 0.5*cos(dphi)
}

// PhaseForWeight returns the differential phase shift that implements a
// multiplication by weight w in [0, 1]: dphi = arccos(2w - 1).
func (m MZM) PhaseForWeight(w float64) float64 {
	w = clamp(w, 0, 1)
	return acos(2*w - 1)
}

// Multiply attenuates the input power by weight w in [0, 1], including
// the device insertion loss. This is the multiply the architecture
// performs: weights are normalized into [0, 1] (signs are handled by
// the MRR switching fabric and balanced photodetection, Eq. 4).
func (m MZM) Multiply(pin, w float64) float64 {
	return pin * m.Transfer(m.PhaseForWeight(w)) * units.LossDBToTransmission(m.InsertionLossDB)
}

// String implements fmt.Stringer.
func (m MZM) String() string {
	return fmt.Sprintf("mzm{IL=%.1f dB}", m.InsertionLossDB)
}
