package photonics

import (
	"fmt"

	"albireo/internal/units"
)

// MRR models a double-bus (add-drop) microring resonator, the
// wavelength-selective filter Albireo uses for optical accumulation
// (paper Section II-B.2, Figure 2c) and for the PLCU switching fabric.
//
// The model follows the transfer-matrix treatment of Bogaerts et al.
// 2012 (the paper's reference [6]):
//
//	FSR     = lambda^2 / (ng * L)                                (Eq. 7)
//	Finesse = FSR / FWHM                                         (Eq. 8)
//	FWHM    = (1 - t1*t2*a) * lambda^2 / (pi*ng*L*sqrt(t1*t2*a)) (Eq. 9)
//
// with L the ring circumference, a the single-pass field amplitude
// transmission (a^2 = e^{-alpha*L}), and t1, t2 the field transmission
// coefficients of the two coupling regions (k^2 + t^2 = 1 for lossless
// couplers). The paper uses symmetric coupling k1 = k2, which yields
// critical coupling for a ~ 1.
type MRR struct {
	// Radius is the ring radius in meters (Table II: 5 um).
	Radius float64
	// K2 is the power cross-coupling coefficient k^2 of each coupler
	// (Table II default: 0.03). Symmetric: both couplers use K2.
	K2 float64
	// Guide is the ring waveguide (bent loss applies).
	Guide Waveguide
	// ResonantWavelength is the tuned resonance in meters.
	ResonantWavelength float64
	// Detuned indicates the ring has been tuned off-resonance ("turned
	// off" in the paper's words) so signals pass to the Thru port.
	Detuned bool
}

// NewMRR returns a ring with the Table II parameters (5 um radius,
// k^2 = 0.03, bent waveguide loss) resonant at the given wavelength.
func NewMRR(resonance float64) MRR {
	return MRR{
		Radius:             5 * units.Micro,
		K2:                 0.03,
		Guide:              BentWaveguide(),
		ResonantWavelength: resonance,
	}
}

// NewMRRWithK2 returns a Table II ring with a custom power
// cross-coupling coefficient, for the k^2 design-space exploration of
// Figure 4.
func NewMRRWithK2(resonance, k2 float64) MRR {
	m := NewMRR(resonance)
	m.K2 = k2
	return m
}

// Circumference returns the ring round-trip length L = 2*pi*r.
func (m MRR) Circumference() float64 {
	return 2 * pi * m.Radius
}

// fieldParams returns (t, a): the coupler field transmission
// coefficient and the single-pass amplitude transmission of the ring.
func (m MRR) fieldParams() (t, a float64) {
	t = sqrt(1 - clamp(m.K2, 0, 1))
	a = m.Guide.AmplitudeTransmission(m.Circumference())
	return t, a
}

// FSR returns the free spectral range in meters of wavelength (Eq. 7).
func (m MRR) FSR() float64 {
	lambda := m.ResonantWavelength
	return lambda * lambda / (m.Guide.NGroup * m.Circumference())
}

// FWHM returns the full width at half maximum of the drop-port
// resonance in meters of wavelength (Eq. 9), for symmetric coupling.
func (m MRR) FWHM() float64 {
	t, a := m.fieldParams()
	tta := t * t * a
	lambda := m.ResonantWavelength
	return (1 - tta) * lambda * lambda / (pi * m.Guide.NGroup * m.Circumference() * sqrt(tta))
}

// Finesse returns FSR/FWHM (Eq. 8).
func (m MRR) Finesse() float64 {
	return m.FSR() / m.FWHM()
}

// roundTripPhase returns the detuning phase phi accumulated in one
// round trip at wavelength lambda, measured from resonance. Near
// resonance the dispersion is governed by the group index:
// phi = 2*pi * ng * L * (lambda_res - lambda) / lambda_res^2.
func (m MRR) roundTripPhase(lambda float64) float64 {
	res := m.ResonantWavelength
	if m.Detuned {
		// Tuning "off" shifts the resonance by half an FSR, the
		// farthest possible detuning for every in-band channel.
		res += m.FSR() / 2
	}
	return 2 * pi * m.Guide.NGroup * m.Circumference() * (res - lambda) / (res * res)
}

// DropTransfer returns the power transfer from the In port to the Drop
// port at wavelength lambda:
//
//	Td = (k1^2 * k2^2 * a) / (1 - 2*t1*t2*a*cos(phi) + (t1*t2*a)^2)
//
// evaluated with symmetric coupling. At resonance this approaches 1 for
// a critically coupled low-loss ring.
func (m MRR) DropTransfer(lambda float64) float64 {
	t, a := m.fieldParams()
	k2 := 1 - t*t
	phi := m.roundTripPhase(lambda)
	tta := t * t * a
	den := 1 - 2*tta*cos(phi) + tta*tta
	return k2 * k2 * a / den
}

// Bandwidth returns the optical 3 dB bandwidth of the resonance in
// hertz: df = c * FWHM / lambda^2. This sets the ring's temporal
// response and hence the maximum modulation rate it can pass
// (Figure 4b).
func (m MRR) Bandwidth() float64 {
	lambda := m.ResonantWavelength
	return units.LightSpeed * m.FWHM() / (lambda * lambda)
}

// PhotonLifetime returns the cavity energy decay time constant
// tau = 1/(2*pi*df_FWHM) * 2 = 1/(pi*df), the first-order time constant
// of the drop-port power envelope.
func (m MRR) PhotonLifetime() float64 {
	return 1 / (pi * m.Bandwidth())
}

// QualityFactor returns the loaded quality factor Q = lambda/FWHM.
func (m MRR) QualityFactor() float64 {
	return m.ResonantWavelength / m.FWHM()
}

// String implements fmt.Stringer.
func (m MRR) String() string {
	return fmt.Sprintf("mrr{r=%.1f um k2=%.3f res=%.2f nm fsr=%.2f nm fwhm=%.3f nm}",
		m.Radius/units.Micro, m.K2, m.ResonantWavelength/units.Nano,
		m.FSR()/units.Nano, m.FWHM()/units.Nano)
}
