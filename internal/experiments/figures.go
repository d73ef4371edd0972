// Package experiments regenerates every table and figure of the
// paper's evaluation (Section IV) from the simulator - Figures 3, 4, 8
// and 9 and Tables I-IV - with its design ablations, the end-to-end
// fidelity studies and the analyses beyond the paper. Each experiment
// returns structured rows, and its Format function renders the text
// table from those rows. All lists every experiment once; it backs the
// albireo-figures CLI, whose JSON output is the committed RESULTS.json
// that EXPERIMENTS.md quotes.
package experiments

import (
	"fmt"
	"strings"

	"albireo/internal/circuit"
	"albireo/internal/noise"
	"albireo/internal/photonics"
	"albireo/internal/units"
)

// Fig3Row is one curve point of Figure 3: noise-limited precision
// versus wavelength count for a given laser power.
type Fig3Row struct {
	LaserPower  float64 // watts
	Wavelengths int
	Bits        float64
	Dominant    string
}

// Fig3 runs the noise-only precision analysis (crosstalk excluded) at
// 0.5, 1, 2 and 4 mW of laser power over 2-64 wavelengths, reproducing
// the shape of Figure 3: precision grows with laser power with
// diminishing returns once RIN dominates. The dot-product path from
// laser to photodiode loses 5 dB (DESIGN.md), which reproduces the
// paper's 10-bit anchor at 2 mW / 20 wavelengths.
func Fig3() []Fig3Row {
	np := noise.DefaultParams()
	pd := photonics.NewPhotodiode()
	var rows []Fig3Row
	for _, lp := range []float64{0.5 * units.Milli, units.Milli, 2 * units.Milli, 4 * units.Milli} {
		iPer := pd.Responsivity * lp * units.LossDBToTransmission(5)
		for n := 2; n <= 64; n += 2 {
			rows = append(rows, Fig3Row{
				LaserPower:  lp,
				Wavelengths: n,
				Bits:        np.PrecisionBits(iPer, n),
				Dominant:    np.DominantSource(iPer, n),
			})
		}
	}
	return rows
}

// FormatFig3 renders the Figure 3 series as a text table.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 3: noise-limited precision vs wavelength count")
	fmt.Fprintln(&b, "laser(mW)  #lambda  bits   dominant-noise")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.1f  %7d  %5.2f  %s\n", r.LaserPower*units.Kilo, r.Wavelengths, r.Bits, r.Dominant)
	}
	return b.String()
}

// Fig4aRow is one spectrum point of Figure 4a: the MRR drop-port
// response versus wavelength detuning, per k^2.
type Fig4aRow struct {
	K2       float64
	DetuneNM float64
	DropDB   float64
}

// Fig4aRing is one ring of the Figure 4a summary table.
type Fig4aRing struct {
	K2       float64
	FWHMNM   float64
	Finesse  float64
	PeakDrop float64 // drop-port transmission at resonance
}

// Fig4aSpectra is Figure 4a: the per-ring summary the text table
// prints and the drop-port spectrum points it summarizes.
type Fig4aSpectra struct {
	Rings    []Fig4aRing
	Spectrum []Fig4aRow
}

// Fig4a sweeps the drop-port spectrum of a 1550 nm ring for each k^2
// over span with the given number of points, and summarizes each
// ring's linewidth, finesse and peak drop.
func Fig4a(k2s []float64, span float64, points int) Fig4aSpectra {
	var f Fig4aSpectra
	center := 1550 * units.Nano
	for _, k2 := range k2s {
		ring := photonics.NewMRRWithK2(center, k2)
		f.Rings = append(f.Rings, Fig4aRing{k2, ring.FWHM() / units.Nano, ring.Finesse(),
			ring.DropTransfer(ring.ResonantWavelength)})
		for i := 0; i < points; i++ {
			det := -span/2 + span*float64(i)/float64(points-1)
			f.Spectrum = append(f.Spectrum, Fig4aRow{
				K2:       k2,
				DetuneNM: det / units.Nano,
				DropDB:   units.LinearToDB(ring.DropTransfer(center + det)),
			})
		}
	}
	return f
}

// FormatFig4a renders the ring summaries.
func FormatFig4a(f Fig4aSpectra) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 4a: MRR drop-port spectrum vs k^2 (1550 nm ring)")
	fmt.Fprintln(&b, "   k^2    FWHM(nm)  finesse  peak-drop")
	for _, r := range f.Rings {
		fmt.Fprintf(&b, "%6.3f  %9.4f  %7.1f  %9.4f\n", r.K2, r.FWHMNM, r.Finesse, r.PeakDrop)
	}
	return b.String()
}

// Fig4bRow is one temporal-response summary of Figure 4b.
type Fig4bRow struct {
	K2          float64
	SymbolRate  float64
	RiseTimePS  float64 // 10-90% rise time
	EyeOpening  float64
	SettledFrac float64
}

// Fig4b characterizes the ring temporal response across k^2 values and
// symbol rates, reproducing the Figure 4b trade-off: the k^2 = 0.02
// ring is the slowest and closes its eye first as the rate rises.
func Fig4b(k2s []float64, rates []float64) []Fig4bRow {
	var rows []Fig4bRow
	for _, k2 := range k2s {
		for _, rate := range rates {
			tr := circuit.NewTemporalResponse(k2, rate)
			rows = append(rows, Fig4bRow{
				K2:          k2,
				SymbolRate:  rate,
				RiseTimePS:  tr.RiseTime() * units.Tera,
				EyeOpening:  tr.EyeOpening(),
				SettledFrac: tr.SettledFraction(),
			})
		}
	}
	return rows
}

// FormatFig4b renders the temporal summary.
func FormatFig4b(rows []Fig4bRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 4b: MRR temporal response vs k^2")
	fmt.Fprintln(&b, "   k^2   rate(GHz)  rise(ps)  eye    settled")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.3f  %9.0f  %8.1f  %5.3f  %7.4f\n",
			r.K2, r.SymbolRate/units.Giga, r.RiseTimePS, r.EyeOpening, r.SettledFrac)
	}
	return b.String()
}

// Fig4cRow is one point of Figure 4c: crosstalk-limited precision
// versus wavelength count per k^2.
type Fig4cRow struct {
	K2           float64
	Wavelengths  int
	Bits         float64
	DiffBits     float64 // with differential (+/-) accumulation
	CrosstalkPct float64
}

// Fig4c sweeps the MRR accumulator precision, reproducing the paper's
// anchors (k^2 = 0.03 supports ~6 bits at 20 wavelengths, ~7 with
// differential accumulation; k^2 = 0.02 holds 8 bits at low counts).
func Fig4c(k2s []float64, maxWavelengths int) []Fig4cRow {
	var rows []Fig4cRow
	for _, k2 := range k2s {
		for n := 4; n <= maxWavelengths; n += 2 {
			xa := circuit.NewCrosstalkAnalysis(k2, n)
			rows = append(rows, Fig4cRow{
				K2:           k2,
				Wavelengths:  n,
				Bits:         xa.PrecisionBits(),
				DiffBits:     xa.DifferentialPrecisionBits(),
				CrosstalkPct: xa.WorstChannelCrosstalk() * 100,
			})
		}
	}
	return rows
}

// FormatFig4c renders the crosstalk precision series.
func FormatFig4c(rows []Fig4cRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 4c: crosstalk-limited precision vs wavelength count")
	fmt.Fprintln(&b, "   k^2  #lambda   bits  bits(diff)  xtalk(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.3f  %7d  %5.2f  %10.2f  %8.3f\n",
			r.K2, r.Wavelengths, r.Bits, r.DiffBits, r.CrosstalkPct)
	}
	return b.String()
}
