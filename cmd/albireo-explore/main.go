// Command albireo-explore sweeps the Albireo design space: the MRR
// coupling coefficient k^2 (Section II-C), the PLCU/PLCG dimensions
// (Nd, Nu, Ng), and the FC mapping - the ablations DESIGN.md calls
// out. The dataflow, energy and scale-out studies over every benchmark
// are albireo-figures entries.
//
// Usage:
//
//	albireo-explore -sweep k2
//	albireo-explore -sweep nd -model VGG16
//	albireo-explore -sweep ng
//	albireo-explore -sweep fc
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"albireo/internal/circuit"
	"albireo/internal/core"
	"albireo/internal/nn"
	"albireo/internal/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "albireo-explore:", err)
		os.Exit(1)
	}
}

// run dispatches the requested sweep, reporting unknown models or
// sweeps as errors so main keeps the single exit point.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("albireo-explore", flag.ContinueOnError)
	sweep := fs.String("sweep", "k2", "design sweep: k2, nd, nu, ng, fc")
	modelName := fs.String("model", "VGG16", "benchmark model for architectural sweeps")
	if err := fs.Parse(args); err != nil {
		return err
	}

	model, ok := nn.ByName(*modelName)
	if !ok {
		return fmt.Errorf("unknown model %q", *modelName)
	}

	switch *sweep {
	case "k2":
		sweepK2(out)
	case "nd":
		sweepNd(out, model)
	case "nu":
		sweepNu(out, model)
	case "ng":
		sweepNg(out, model)
	case "fc":
		sweepFC(out, model)
	default:
		return fmt.Errorf("unknown sweep %q", *sweep)
	}
	return nil
}

func sweepK2(out io.Writer) {
	fmt.Fprintln(out, "MRR k^2 design space at 21 wavelengths (the PLCU grid):")
	fmt.Fprintln(out, "  k^2    bits  bits(diff)  eye@5GHz  rise(ps)")
	for _, k2 := range []float64{0.01, 0.02, 0.03, 0.05, 0.08, 0.12} {
		xa := circuit.NewCrosstalkAnalysis(k2, 21)
		tr := circuit.NewTemporalResponse(k2, 5e9)
		fmt.Fprintf(out, "%6.3f  %5.2f  %10.2f  %8.3f  %8.1f\n",
			k2, xa.PrecisionBits(), xa.DifferentialPrecisionBits(),
			tr.EyeOpening(), 2.2*tr.Ring.PhotonLifetime()*1e12)
	}
	fmt.Fprintln(out, "\nthe paper picks k^2 = 0.03: >= 7 differential bits at 21")
	fmt.Fprintln(out, "wavelengths with healthy 5 GHz temporal response.")
}

func report(out io.Writer, cfg core.Config, model nn.Model, label string) {
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(out, "%-14s  invalid: %v\n", label, err)
		return
	}
	r := perf.Evaluate(cfg, model)
	fmt.Fprintf(out, "%-14s  %9.4f ms  %8.2f W  %9.3f mJ  %10.4f mJ*ms  %4d lambda\n",
		label, r.Latency*1e3, r.Power, r.Energy*1e3, r.EDP*1e6,
		cfg.TotalWavelengths())
}

func sweepNd(out io.Writer, model nn.Model) {
	fmt.Fprintf(out, "Nd sweep (receptive-field parallelism) on %s:\n", model.Name)
	fmt.Fprintln(out, "design          latency       power     energy       EDP            WDM")
	for _, nd := range []int{1, 3, 5, 7, 9} {
		cfg := core.DefaultConfig()
		cfg.Nd = nd
		report(out, cfg, model, fmt.Sprintf("Nd=%d", nd))
	}
	fmt.Fprintln(out, "\nlarger Nd means more wavelengths per PLCU and lower crosstalk-")
	fmt.Fprintln(out, "limited precision; the paper settles on Nd=5 (21 wavelengths).")
}

func sweepNu(out io.Writer, model nn.Model) {
	fmt.Fprintf(out, "Nu sweep (channels per PLCG) on %s:\n", model.Name)
	fmt.Fprintln(out, "design          latency       power     energy       EDP            WDM")
	for _, nu := range []int{1, 2, 3, 4, 6} {
		cfg := core.DefaultConfig()
		cfg.Nu = nu
		label := fmt.Sprintf("Nu=%d", nu)
		if cfg.TotalWavelengths() > 64 {
			label += "*"
		}
		report(out, cfg, model, label)
	}
	fmt.Fprintln(out, "\n* exceeds the 64-wavelength distribution budget (Section III-B).")
}

func sweepNg(out io.Writer, model nn.Model) {
	fmt.Fprintf(out, "Ng sweep (kernel parallelism / chip scaling) on %s:\n", model.Name)
	fmt.Fprintln(out, "design          latency       power     energy       EDP            WDM")
	for _, ng := range []int{3, 9, 18, 27, 54} {
		cfg := core.DefaultConfig()
		cfg.Ng = ng
		report(out, cfg, model, fmt.Sprintf("Ng=%d", ng))
	}
	fmt.Fprintln(out, "\nthe paper evaluates Ng=9 (22.7 W) and the 60 W-budget Ng=27.")
}

func sweepFC(out io.Writer, model nn.Model) {
	fmt.Fprintf(out, "FC mapping ablation on %s:\n", model.Name)
	fmt.Fprintln(out, "design          latency       power     energy       EDP            WDM")
	wide := core.DefaultConfig()
	narrow := core.DefaultConfig()
	narrow.FCWide = false
	report(out, wide, model, "FC wide")
	report(out, narrow, model, "FC narrow")
	fmt.Fprintln(out, "\nthe paper's prose describes the narrow mapping but its AlexNet")
	fmt.Fprintln(out, "latency matches the wide one; see DESIGN.md and EXPERIMENTS.md.")
}
