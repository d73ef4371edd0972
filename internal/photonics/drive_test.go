package photonics

import (
	"albireo/internal/units"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestVPiFromDeviceGeometry(t *testing.T) {
	// 0.29 V*cm over a 300 um arm: Vpi = 9.67 V.
	d := NewMZMDrive()
	if math.Abs(d.VPi()-9.666666666666666) > 1e-9 {
		t.Errorf("Vpi = %.3f V, want 9.67 V", d.VPi())
	}
	if !d.Reachable() {
		t.Error("the reference device must reach the full weight range within 12 V")
	}
	// A short arm needs more voltage than the driver has.
	short := d
	short.ArmLength = 100e-6
	if short.Reachable() {
		t.Error("a 100 um arm (Vpi = 29 V) should not be reachable")
	}
}

func TestVoltagePhaseWeightChain(t *testing.T) {
	d := NewMZMDrive()
	// Zero volts: no phase shift, weight 1. Vpi: pi shift, weight 0.
	if w := d.WeightForVoltage(0); math.Abs(w-1) > 1e-12 {
		t.Errorf("0 V weight = %g, want 1", w)
	}
	if w := d.WeightForVoltage(d.VPi()); math.Abs(w) > 1e-12 {
		t.Errorf("Vpi weight = %g, want 0", w)
	}
	// Half Vpi is the quadrature point: weight 0.5.
	if w := d.WeightForVoltage(d.VPi() / 2); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("Vpi/2 weight = %g, want 0.5", w)
	}
	// Voltages beyond Vpi clamp.
	if d.WeightForVoltage(100) != 0 {
		t.Error("over-drive should clamp at full extinction")
	}
}

func TestVoltageForWeightRoundTrip(t *testing.T) {
	d := NewMZMDrive()
	f := func(raw float64) bool {
		w := math.Abs(math.Mod(raw, 1))
		v := d.VoltageForWeight(w)
		return v >= 0 && v <= d.VPi()+1e-9 &&
			math.Abs(d.WeightForVoltage(v)-w) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodeTransferCurve(t *testing.T) {
	d := NewMZMDrive()
	curve := d.CodeTransferCurve(8)
	if len(curve) != 256 {
		t.Fatal("8-bit curve length")
	}
	// Monotone decreasing from 1 to 0 (more voltage, more
	// extinction).
	if math.Abs(curve[0]-1) > 1e-12 || math.Abs(curve[255]) > 1e-12 {
		t.Error("curve endpoints")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-12 {
			t.Fatal("code transfer curve must be monotone")
		}
	}
	// The raised-cosine nonlinearity: the midpoint code lands at 0.5
	// weight, but quarter-scale codes do not land at 0.75/0.25 (they
	// follow cos^2) - this is why controllers pre-distort.
	if math.Abs(curve[128]-0.5) > 0.01 {
		t.Errorf("mid-code weight = %.3f, want ~0.5", curve[128])
	}
	quarter := curve[64]
	if math.Abs(quarter-0.75) < 0.01 {
		t.Error("a linear-voltage DAC should NOT give a linear weight grid")
	}
	if d.String() == "" {
		t.Error("String")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// MZMDrive models the electro-optic drive of the weight MZM: the
// paper's conservative device is the forward-biased PIN Mach-Zehnder
// of Akiyama et al. (reference [1]) with V-pi*L = 0.29 V*cm. The DAC
// output voltage sets the differential phase, which sets the weight
// via Eq. 2 - this closes the loop between the digital weight code and
// the optical transfer.
type MZMDrive struct {
	// VPiL is the voltage-length product for a pi phase shift, in
	// volt-meters (0.29 V*cm).
	VPiL float64
	// ArmLength is the phase-shifter length in meters (300 um, the
	// Table II MZM footprint's long axis).
	ArmLength float64
	// MaxVoltage is the driver swing ceiling.
	MaxVoltage float64
}

// NewMZMDrive returns the reference [1] device geometry.
func NewMZMDrive() MZMDrive {
	return MZMDrive{
		VPiL:       0.29e-2, // 0.29 V*cm in V*m
		ArmLength:  300 * units.Micro,
		MaxVoltage: 12,
	}
}

// VPi returns the voltage for a pi differential phase shift at this
// arm length.
func (d MZMDrive) VPi() float64 {
	return d.VPiL / d.ArmLength
}

// PhaseForVoltage returns the differential phase (radians, clamped to
// [0, pi]) for a drive voltage.
func (d MZMDrive) PhaseForVoltage(v float64) float64 {
	return clamp(v/d.VPi(), 0, 1) * pi
}

// VoltageForWeight returns the drive voltage that programs weight w in
// [0, 1] through Eq. 2: dphi = arccos(2w - 1), v = dphi/pi * Vpi.
func (d MZMDrive) VoltageForWeight(w float64) float64 {
	m := MZM{}
	return m.PhaseForWeight(w) / pi * d.VPi()
}

// WeightForVoltage inverts the chain: voltage -> phase -> transfer.
func (d MZMDrive) WeightForVoltage(v float64) float64 {
	m := MZM{}
	return m.Transfer(d.PhaseForVoltage(v))
}

// Reachable reports whether the full weight range [0, 1] fits inside
// the driver swing: the zero weight needs the full Vpi.
func (d MZMDrive) Reachable() bool {
	return d.VPi() <= d.MaxVoltage
}

// CodeTransferCurve returns the optical transfer realized by each DAC
// code of a b-bit driver spanning [0, Vpi] linearly - the end-to-end
// code-to-weight map including the arccos nonlinearity. A linear
// voltage DAC yields a raised-cosine weight grid, which is why the
// weight quantizer in internal/quant models the value grid directly
// (the controller pre-distorts codes).
func (d MZMDrive) CodeTransferCurve(bits int) []float64 {
	n := 1 << uint(bits)
	out := make([]float64, n)
	vpi := d.VPi()
	for i := range out {
		v := vpi * float64(i) / float64(n-1)
		out[i] = d.WeightForVoltage(v)
	}
	return out
}

// String implements fmt.Stringer.
func (d MZMDrive) String() string {
	return fmt.Sprintf("mzmdrive{VpiL=%.2f V*cm, L=%.0f um, Vpi=%.2f V}",
		d.VPiL*100, d.ArmLength*units.Mega, d.VPi())
}
