package photonics

import (
	"fmt"

	"albireo/internal/units"
)

// YBranch models the 1x2 power splitter used to broadcast input
// signals to the PLCGs (paper Section III-C: "signals are easily split
// using a series of Y-branches"). Splitting divides power equally in
// addition to the excess insertion loss.
type YBranch struct {
	// ExcessLossDB is the insertion loss beyond the ideal 3 dB split
	// (Table II: 0.3 dB).
	ExcessLossDB float64
}

// NewYBranch returns the Table II Y-branch.
func NewYBranch() YBranch { return YBranch{ExcessLossDB: 0.3} }

// BroadcastTree models a tree of Y-branches fanning one input out to n
// outputs. It returns the per-output power. The tree depth is
// ceil(log2(n)); each level costs the 3 dB split plus excess loss.
func (y YBranch) BroadcastTree(pin float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	if n == 1 {
		return pin
	}
	depth := 0
	for c := 1; c < n; c *= 2 {
		depth++
	}
	per := pin / float64(uint(1)<<uint(depth))
	return per * units.LossDBToTransmission(float64(depth)*y.ExcessLossDB)
}

// StarCoupler models the free-propagation-region multicast device of
// Section III-C: it takes In demultiplexed single-wavelength inputs and
// physically broadcasts each of them to all Out output ports, where the
// PLCU consumes them in a multicast pattern.
type StarCoupler struct {
	// In is the number of input waveguides (Nd + Wx - 1 = 7 in the
	// default PLCU).
	In int
	// Out is the number of output waveguides (Wx = 3).
	Out int
	// ExcessLossDB is the insertion loss (Table II: 1.3 dB).
	ExcessLossDB float64
}

// NewStarCoupler returns a Table II star coupler of the given radix.
func NewStarCoupler(in, out int) StarCoupler {
	return StarCoupler{In: in, Out: out, ExcessLossDB: 1.3}
}

// PerOutputPower returns the power each output port receives from one
// input carrying pin: the input is split across all Out ports and
// suffers the excess loss.
func (s StarCoupler) PerOutputPower(pin float64) float64 {
	if s.Out <= 0 {
		return 0
	}
	return pin / float64(s.Out) * units.LossDBToTransmission(s.ExcessLossDB)
}

// AWG models the arrayed waveguide grating that demultiplexes the 64
// distribution wavelengths delivered to each PLCG into separate
// waveguides (Section III-C). AWGs are passive and consume no power.
type AWG struct {
	// Channels is the demux channel count (Table II: 64).
	Channels int
	// InsertionLossDB is the per-channel loss (Table II: 2.0 dB).
	InsertionLossDB float64
	// CrosstalkDB is the adjacent-channel crosstalk (Table II: -34 dB).
	CrosstalkDB float64
	// FSR is the grating free spectral range (Table II: 70 nm).
	FSR float64
}

// NewAWG returns the Table II AWG.
func NewAWG() AWG {
	return AWG{
		Channels:        64,
		InsertionLossDB: 2.0,
		CrosstalkDB:     -34,
		FSR:             70 * units.Nano,
	}
}

// Demux separates a WDM bundle into per-channel outputs. Each output
// carries its own channel attenuated by the insertion loss plus leakage
// from the two adjacent channels at the crosstalk level. The output
// slice has the same length as the input.
func (a AWG) Demux(pins []float64) []float64 {
	il := units.LossDBToTransmission(a.InsertionLossDB)
	xt := units.DBToLinear(a.CrosstalkDB)
	out := make([]float64, len(pins))
	for i, p := range pins {
		v := p * il
		if i > 0 {
			v += pins[i-1] * il * xt
		}
		if i+1 < len(pins) {
			v += pins[i+1] * il * xt
		}
		out[i] = v
	}
	return out
}

// String implements fmt.Stringer.
func (a AWG) String() string {
	return fmt.Sprintf("awg{ch=%d IL=%.1f dB xt=%.0f dB}", a.Channels, a.InsertionLossDB, a.CrosstalkDB)
}
