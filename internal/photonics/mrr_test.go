package photonics

import (
	"math"
	"testing"
	"testing/quick"

	"albireo/internal/units"
)

const c1550 = 1550e-9

func TestMRRFSRMatchesTableII(t *testing.T) {
	// Eq. 7 with the Table II ring (5 um radius, ng = 4.68) should land
	// near the quoted 16.1 nm FSR.
	m := NewMRR(c1550)
	fsr := m.FSR()
	if math.Abs(fsr-16.1*units.Nano) > 0.5*units.Nano {
		t.Errorf("FSR = %.3f nm, want ~16.1 nm", fsr/units.Nano)
	}
}

func TestMRRFWHMOrdering(t *testing.T) {
	// Lower k^2 narrows the resonance (Section II-C, Figure 4a).
	prev := math.Inf(1)
	for _, k2 := range []float64{0.10, 0.05, 0.03, 0.02} {
		m := NewMRRWithK2(c1550, k2)
		w := m.FWHM()
		if w >= prev {
			t.Errorf("FWHM should shrink with k^2: k2=%.2f gives %.4f nm >= previous %.4f nm",
				k2, w/units.Nano, prev/units.Nano)
		}
		prev = w
	}
}

func TestMRRFWHMValue(t *testing.T) {
	// Hand-computed Eq. 9 for k^2 = 0.03: ~0.166 nm (see DESIGN.md).
	m := NewMRR(c1550)
	w := m.FWHM()
	if math.Abs(w-0.166*units.Nano) > 0.02*units.Nano {
		t.Errorf("FWHM = %.4f nm, want ~0.166 nm", w/units.Nano)
	}
}

func TestMRRFinesse(t *testing.T) {
	m := NewMRR(c1550)
	f := m.Finesse()
	want := m.FSR() / m.FWHM()
	if math.Abs(f-want) > 1e-9 {
		t.Errorf("finesse inconsistent with FSR/FWHM")
	}
	// For k^2 = 0.03 the finesse is high (order 100).
	if f < 50 || f > 200 {
		t.Errorf("finesse %.1f outside plausible range for k2=0.03", f)
	}
}

func TestMRRFinesseIndependentOfRadius(t *testing.T) {
	// Section II-C: finesse is constant regardless of L in an ideal
	// (lossless) MRR; it is set by the coupling alone.
	lossless := Waveguide{NEff: 2.33, NGroup: 4.68, LossDBPerM: 0}
	small := NewMRR(c1550)
	small.Radius = 3 * units.Micro
	small.Guide = lossless
	big := NewMRR(c1550)
	big.Radius = 10 * units.Micro
	big.Guide = lossless
	rel := math.Abs(small.Finesse()-big.Finesse()) / big.Finesse()
	if rel > 1e-9 {
		t.Errorf("ideal-ring finesse should be radius independent, differs by %.2g%%", rel*100)
	}
	// With loss, longer rings lose finesse, but only slightly at
	// 3.8 dB/cm over tens of microns.
	lossy := NewMRR(c1550)
	lossy.Radius = 10 * units.Micro
	rel = math.Abs(lossy.Finesse()-NewMRR(c1550).Finesse()) / NewMRR(c1550).Finesse()
	if rel > 0.15 {
		t.Errorf("lossy finesse drift %.1f%% larger than expected", rel*100)
	}
}

func TestMRRDropAtResonance(t *testing.T) {
	// A symmetric low-loss ring is near critical coupling: the drop
	// transfer at resonance approaches 1.
	m := NewMRR(c1550)
	d := m.DropTransfer(c1550)
	if d < 0.9 || d > 1.0 {
		t.Errorf("drop transfer at resonance = %.4f, want ~1", d)
	}
	// Thru port is correspondingly extinguished at resonance.
	th := m.ThruTransfer(c1550)
	if th > 0.05 {
		t.Errorf("thru transfer at resonance = %.4f, want ~0", th)
	}
}

func TestMRRDropHalfMaxAtFWHM(t *testing.T) {
	// The drop response should fall to half its peak at +-FWHM/2. This
	// checks the spectrum formula against the analytic FWHM of Eq. 9.
	m := NewMRR(c1550)
	peak := m.DropTransfer(c1550)
	half := m.DropTransfer(c1550 + m.FWHM()/2)
	if math.Abs(half-peak/2) > 0.03*peak {
		t.Errorf("drop at FWHM/2 = %.4f, want half of peak %.4f", half, peak)
	}
}

func TestMRRPeriodicInFSR(t *testing.T) {
	// Resonances repeat at the FSR (Section II-C).
	m := NewMRR(c1550)
	d0 := m.DropTransfer(c1550)
	d1 := m.DropTransfer(c1550 - m.FSR())
	if math.Abs(d0-d1) > 0.05*d0 {
		t.Errorf("drop transfer not FSR-periodic: %.4f vs %.4f", d0, d1)
	}
}

func TestMRRDetuned(t *testing.T) {
	// A detuned ("turned off") ring passes its former resonance to the
	// Thru port nearly unimpeded.
	m := NewMRR(c1550)
	m.Detuned = true
	if d := m.DropTransfer(c1550); d > 0.01 {
		t.Errorf("detuned ring still drops %.4f of the signal", d)
	}
	if th := m.ThruTransfer(c1550); th < 0.9 {
		t.Errorf("detuned ring thru transfer = %.4f, want ~1", th)
	}
}

func TestMRREnergyConservation(t *testing.T) {
	// Drop + Thru <= 1 everywhere (passive device), and the deficit is
	// bounded by the ring loss.
	m := NewMRR(c1550)
	f := func(off float64) bool {
		lambda := c1550 + math.Mod(off, 8e-9)
		sum := m.DropTransfer(lambda) + m.ThruTransfer(lambda)
		return sum <= 1.0+1e-9 && sum > 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMRRBandwidthAndLifetime(t *testing.T) {
	m := NewMRR(c1550)
	bw := m.Bandwidth()
	// FWHM 0.166 nm at 1550 nm is ~20.7 GHz.
	if math.Abs(bw-20.7e9) > 2e9 {
		t.Errorf("bandwidth = %.1f GHz, want ~20.7 GHz", bw/1e9)
	}
	tau := m.PhotonLifetime()
	if math.Abs(tau*pi*bw-1) > 1e-9 {
		t.Error("photon lifetime inconsistent with bandwidth")
	}
	// k^2 = 0.02 ring is slower (narrower): the basis of Figure 4b.
	slow := NewMRRWithK2(c1550, 0.02)
	if slow.Bandwidth() >= bw {
		t.Error("k2=0.02 ring should have lower bandwidth than k2=0.03")
	}
}

func TestMRRQualityFactor(t *testing.T) {
	m := NewMRR(c1550)
	q := m.QualityFactor()
	if math.Abs(q-c1550/m.FWHM()) > 1e-6 {
		t.Error("Q inconsistent with lambda/FWHM")
	}
	if q < 5000 || q > 20000 {
		t.Errorf("Q = %.0f outside plausible range for this ring", q)
	}
}

func TestMRRString(t *testing.T) {
	s := NewMRR(c1550).String()
	if s == "" {
		t.Error("String should describe the ring")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// ThruTransfer returns the power transfer from the In port to the Thru
// port at wavelength lambda:
//
//	Tt = (t2^2*a^2 - 2*t1*t2*a*cos(phi) + t1^2) / (1 - 2*t1*t2*a*cos(phi) + (t1*t2*a)^2)
func (m MRR) ThruTransfer(lambda float64) float64 {
	t, a := m.fieldParams()
	phi := m.roundTripPhase(lambda)
	tta := t * t * a
	den := 1 - 2*tta*cos(phi) + tta*tta
	num := t*t*a*a - 2*tta*cos(phi) + t*t
	return num / den
}
