package experiments

import (
	"fmt"
	"strings"

	"albireo/internal/circuit"
	"albireo/internal/core"
	"albireo/internal/nn"
	"albireo/internal/perf"
	"albireo/internal/tensor"
	"albireo/internal/units"
)

// Design-space ablations: the MRR coupling k^2 (Section II-C), the
// PLCU/PLCG dimensions Nd, Nu and Ng and the FC mapping (Section III),
// and the weight drive.

// K2Row is one ring coupling of the k^2 design space at the PLCU's 21
// wavelengths.
type K2Row struct {
	K2, Bits, DiffBits float64
	Eye                float64 // eye opening at 5 GHz
	RisePS             float64 // 10-90% rise time
}

// K2Sweep trades crosstalk-limited precision against temporal
// response across ring couplings.
func K2Sweep() []K2Row {
	var rows []K2Row
	for _, k2 := range []float64{0.01, 0.02, 0.03, 0.05, 0.08, 0.12} {
		xa := circuit.NewCrosstalkAnalysis(k2, 21)
		tr := circuit.NewTemporalResponse(k2, 5*units.Giga)
		rows = append(rows, K2Row{k2, xa.PrecisionBits(), xa.DifferentialPrecisionBits(),
			tr.EyeOpening(), tr.RiseTime() * units.Tera})
	}
	return rows
}

// FormatK2 renders the k^2 design space.
func FormatK2(rows []K2Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "MRR k^2 design space at 21 wavelengths (the PLCU grid):")
	fmt.Fprintln(&b, "  k^2    bits  bits(diff)  eye@5GHz  rise(ps)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.3f  %5.2f  %10.2f  %8.3f  %8.1f\n", r.K2, r.Bits, r.DiffBits, r.Eye, r.RisePS)
	}
	fmt.Fprintln(&b, "\nthe paper picks k^2 = 0.03 for its healthy 5 GHz eye; at 21")
	fmt.Fprintln(&b, "wavelengths its differential precision falls short of the >= 7")
	fmt.Fprintln(&b, "bits the paper quotes.")
	return b.String()
}

// DesignPoint is one design of an architectural sweep, evaluated on
// one network.
type DesignPoint struct {
	Design                      string
	Latency, Power, Energy, EDP float64 // s, W, J, J*s
	Wavelengths                 int
}

// sweep evaluates m on the default design changed by set, once per
// value; set applies a value and returns the design's label.
func sweep[T any](m nn.Model, values []T, set func(*core.Config, T) string) []DesignPoint {
	rows := make([]DesignPoint, 0, len(values))
	for _, v := range values {
		cfg := core.DefaultConfig()
		label := set(&cfg, v)
		r := perf.Evaluate(cfg, m)
		rows = append(rows, DesignPoint{label, r.Latency, r.Power, r.Energy, r.EDP, cfg.TotalWavelengths()})
	}
	return rows
}

// NdSweep varies the receptive-field parallelism on VGG16.
func NdSweep() []DesignPoint {
	return sweep(nn.VGG16(), []int{1, 3, 5, 7, 9}, func(c *core.Config, nd int) string {
		c.Nd = nd
		return fmt.Sprintf("Nd=%d", nd)
	})
}

// NuSweep varies the channels per PLCG on VGG16; a label's * marks a
// design over the 64-wavelength distribution budget.
func NuSweep() []DesignPoint {
	return sweep(nn.VGG16(), []int{1, 2, 3, 4, 6}, func(c *core.Config, nu int) string {
		c.Nu = nu
		if c.TotalWavelengths() > 64 {
			return fmt.Sprintf("Nu=%d*", nu)
		}
		return fmt.Sprintf("Nu=%d", nu)
	})
}

// NgSweep varies the kernel parallelism (the chip's scale) on VGG16.
func NgSweep() []DesignPoint {
	return sweep(nn.VGG16(), []int{3, 9, 18, 27, 54}, func(c *core.Config, ng int) string {
		c.Ng = ng
		return fmt.Sprintf("Ng=%d", ng)
	})
}

// FCSweep compares the wide and narrow FC mappings on AlexNet.
func FCSweep() []DesignPoint {
	return sweep(nn.AlexNet(), []string{"FC wide", "FC narrow"}, func(c *core.Config, label string) string {
		c.FCWide = label == "FC wide"
		return label
	})
}

// formatSweep renders a sweep under title, followed by a note.
func formatSweep(title, note string) func([]DesignPoint) string {
	return func(rows []DesignPoint) string {
		var b strings.Builder
		fmt.Fprintln(&b, title)
		fmt.Fprintln(&b, "design          latency       power     energy       EDP            WDM")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-14s  %9.4f ms  %8.2f W  %9.3f mJ  %10.4f mJ*ms  %4d lambda\n",
				r.Design, r.Latency*units.Kilo, r.Power, r.Energy*units.Kilo, r.EDP*units.Mega, r.Wavelengths)
		}
		fmt.Fprintf(&b, "\n%s", note)
		return b.String()
	}
}

// DriveAblation is the weight-drive ablation: the relative RMS error
// (percent) of one convolution on an ideal-device chip with
// value-domain weights, pre-distorted through the MZM's raised-cosine
// transfer (Eq. 2), and with raw linear-voltage weight codes.
type DriveAblation struct {
	ValueRMSPct, VoltageRMSPct float64
}

// DriveNonlinearity runs the weight-drive ablation on a 6x10x10 input
// and four 3x3 kernels, noise and crosstalk off.
func DriveNonlinearity() DriveAblation {
	a := tensor.RandomVolume(6, 10, 10, 501)
	w := tensor.RandomKernels(4, 6, 3, 3, 502)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}
	want := tensor.Conv(a, w, cc).Data
	cfg := core.DefaultConfig()
	cfg.DisableNoise, cfg.DisableCrosstalk = true, true
	value := relRMS(core.NewChip(cfg).Conv(a, w, cc, false).Data, want)
	cfg.VoltageDomainWeights = true
	voltage := relRMS(core.NewChip(cfg).Conv(a, w, cc, false).Data, want)
	return DriveAblation{value * 100, voltage * 100}
}

// FormatDrive renders the weight-drive ablation.
func FormatDrive(d DriveAblation) string {
	return fmt.Sprintf("Weight drive (6x10x10 conv, 4 3x3 kernels, noise and crosstalk off)\n"+
		"weights                       rel-RMS(%%)\n"+
		"value-domain (pre-distorted)  %10.3f\n"+
		"raw voltage-domain            %10.3f\n", d.ValueRMSPct, d.VoltageRMSPct)
}
