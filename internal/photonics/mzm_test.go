package photonics

import (
	"math"
	"testing"
	"testing/quick"

	"albireo/internal/units"
)

func TestMZMTransferEndpoints(t *testing.T) {
	m := NewMZM()
	// Eq. 2: dphi = 0 multiplies by 1, dphi = pi multiplies by 0.
	if got := m.Transfer(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Transfer(0) = %g, want 1", got)
	}
	if got := m.Transfer(math.Pi); math.Abs(got) > 1e-12 {
		t.Errorf("Transfer(pi) = %g, want 0", got)
	}
	// Quadrature point multiplies by one half.
	if got := m.Transfer(math.Pi / 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Transfer(pi/2) = %g, want 0.5", got)
	}
}

func TestMZMTransferClamped(t *testing.T) {
	m := NewMZM()
	if m.Transfer(-1) != m.Transfer(0) {
		t.Error("negative phase should clamp to 0")
	}
	if m.Transfer(10) != m.Transfer(math.Pi) {
		t.Error("phase beyond pi should clamp to pi")
	}
}

func TestMZMPhaseForWeightRoundTrip(t *testing.T) {
	m := NewMZM()
	f := func(w float64) bool {
		w = math.Abs(math.Mod(w, 1))
		got := m.Transfer(m.PhaseForWeight(w))
		return math.Abs(got-w) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMZMMultiplyIncludesInsertionLoss(t *testing.T) {
	m := NewMZM()
	il := units.LossDBToTransmission(1.2)
	got := m.Multiply(1e-3, 1.0)
	want := 1e-3 * il
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("Multiply(1mW, 1) = %g, want %g (IL only)", got, want)
	}
	if m.Multiply(1e-3, 0) > 1e-15 {
		t.Error("Multiply by 0 should extinguish the signal")
	}
}

func TestMZMMultiplyMonotone(t *testing.T) {
	m := NewMZM()
	prev := -1.0
	for w := 0.0; w <= 1.0; w += 0.05 {
		got := m.Multiply(1, w)
		if got < prev {
			t.Errorf("Multiply should be monotone in weight: w=%.2f", w)
		}
		prev = got
	}
}

func TestMZMMultiplyWDM(t *testing.T) {
	// One MZM multiplies every wavelength by the same weight
	// (Figure 2b) - the parameter-sharing primitive.
	m := NewMZM()
	in := []float64{1e-3, 2e-3, 0, 5e-4}
	out := m.MultiplyWDM(in, 0.5)
	if len(out) != len(in) {
		t.Fatal("WDM output length mismatch")
	}
	scale := out[0] / in[0]
	for i := range in {
		if in[i] == 0 {
			if out[i] != 0 {
				t.Error("zero channel should stay zero")
			}
			continue
		}
		if math.Abs(out[i]/in[i]-scale) > 1e-12 {
			t.Error("all channels must see the identical weight")
		}
	}
}

func TestYBranchSplit(t *testing.T) {
	y := NewYBranch()
	a, b := y.Split(1e-3)
	if a != b {
		t.Error("Y-branch arms should be balanced")
	}
	want := 0.5e-3 * units.LossDBToTransmission(0.3)
	if math.Abs(a-want) > 1e-15 {
		t.Errorf("split power %g, want %g", a, want)
	}
}

func TestBroadcastTree(t *testing.T) {
	y := NewYBranch()
	// One output: passthrough.
	if y.BroadcastTree(1, 1) != 1 {
		t.Error("n=1 should be lossless passthrough")
	}
	// Degenerate inputs.
	if y.BroadcastTree(1, 0) != 0 {
		t.Error("n=0 should deliver nothing")
	}
	// 9-way broadcast (Ng = 9): 4 levels of splitting, 16-way power
	// division, 4x excess loss.
	got := y.BroadcastTree(1, 9)
	want := 1.0 / 16 * units.LossDBToTransmission(4*0.3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("9-way broadcast per-output power = %g, want %g", got, want)
	}
	// 2-way equals a single split.
	a, _ := y.Split(1)
	if math.Abs(y.BroadcastTree(1, 2)-a) > 1e-15 {
		t.Error("2-way tree should equal one Y-branch")
	}
}

func TestStarCouplerMulticast(t *testing.T) {
	s := NewStarCoupler(7, 3)
	in := []float64{1, 2, 3, 4, 5, 6, 7}
	out := s.Multicast(in)
	if len(out) != 3 {
		t.Fatal("should have Out rows")
	}
	per := units.LossDBToTransmission(1.3) / 3
	for o := range out {
		for i := range in {
			want := in[i] * per
			if math.Abs(out[o][i]-want) > 1e-12 {
				t.Errorf("out[%d][%d] = %g, want %g", o, i, out[o][i], want)
			}
		}
	}
}

func TestStarCouplerDegenerate(t *testing.T) {
	s := StarCoupler{In: 4, Out: 0, ExcessLossDB: 1.3}
	if s.PerOutputPower(1) != 0 {
		t.Error("zero-output coupler delivers nothing")
	}
}

func TestAWGDemux(t *testing.T) {
	a := NewAWG()
	in := []float64{1e-3, 0, 1e-3}
	out := a.Demux(in)
	il := units.LossDBToTransmission(2.0)
	xt := units.DBToLinear(-34)
	// Middle channel carries only neighbor leakage.
	wantMid := (1e-3 + 1e-3) * il * xt
	if math.Abs(out[1]-wantMid) > 1e-15 {
		t.Errorf("mid channel = %g, want leakage %g", out[1], wantMid)
	}
	// Edge channel: own power plus one neighbor's leakage (zero here).
	if math.Abs(out[0]-1e-3*il) > 1e-12 {
		t.Errorf("edge channel = %g, want %g", out[0], 1e-3*il)
	}
}

func TestWaveguidePropagation(t *testing.T) {
	w := StraightWaveguide()
	// 1 cm of 1.5 dB/cm waveguide.
	got := w.Propagate(1e-3, 0.01)
	want := 1e-3 * units.LossDBToTransmission(1.5)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("1 cm propagation = %g, want %g", got, want)
	}
	if BentWaveguide().LossDBPerM <= w.LossDBPerM {
		t.Error("bent waveguide must be lossier than straight")
	}
}

func TestWaveguideAmplitudeVsPower(t *testing.T) {
	w := BentWaveguide()
	l := 31.4e-6 // one ring circumference
	a := w.AmplitudeTransmission(l)
	if math.Abs(a*a-w.Transmission(l)) > 1e-12 {
		t.Error("a^2 must equal the power transmission")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// MultiplyWDM multiplies every channel power in pins by the same weight
// w, writing results into a new slice. This models the MZM's
// wavelength-independent operation across a WDM bundle (Figure 2b).
func (m MZM) MultiplyWDM(pins []float64, w float64) []float64 {
	out := make([]float64, len(pins))
	loss := units.LossDBToTransmission(m.InsertionLossDB)
	tf := m.Transfer(m.PhaseForWeight(w)) * loss
	for i, p := range pins {
		out[i] = p * tf
	}
	return out
}

// Split returns the power on each of the two output arms.
func (y YBranch) Split(pin float64) (a, b float64) {
	out := pin / 2 * units.LossDBToTransmission(y.ExcessLossDB)
	return out, out
}

// Multicast distributes each input channel to every output port. The
// result is indexed [output][input] and contains the per-port power of
// each wavelength after the split. All inputs carry distinct
// wavelengths, so powers never interfere.
func (s StarCoupler) Multicast(pins []float64) [][]float64 {
	out := make([][]float64, s.Out)
	for o := range out {
		row := make([]float64, len(pins))
		for i, p := range pins {
			row[i] = s.PerOutputPower(p)
		}
		out[o] = row
	}
	return out
}

// StraightWaveguide returns the Table II straight waveguide
// (500x220 nm, 1.5 dB/cm).
func StraightWaveguide() Waveguide {
	return Waveguide{NEff: 2.33, NGroup: 4.68, LossDBPerM: 150}
}

// Propagate attenuates an optical power over the given length.
func (w Waveguide) Propagate(power, length float64) float64 {
	return power * w.Transmission(length)
}
