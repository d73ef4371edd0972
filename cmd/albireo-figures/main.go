// Command albireo-figures regenerates every table and figure of the
// paper's evaluation from the simulator.
//
// Usage:
//
//	albireo-figures              # print everything
//	albireo-figures -json        # every experiment's rows as JSON
//	albireo-figures -only fig8   # one experiment: fig3, fig4a, fig4b,
//	                             # fig4c, fig8, fig9, table1..table4,
//	                             # dataflow, energy, or a beyond-the-
//	                             # paper study: link, feasibility,
//	                             # tiling, isi, ringlock, bitwidth,
//	                             # gemmquant
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"albireo/internal/control"
	"albireo/internal/core"
	"albireo/internal/experiments"
	"albireo/internal/nn"
	"albireo/internal/sim"
	"albireo/internal/units"
	"albireo/internal/waveform"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "albireo-figures:", err)
		os.Exit(1)
	}
}

// run generates the requested experiments to out, returning an error
// (instead of exiting mid-logic) for unknown names or JSON failures.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("albireo-figures", flag.ContinueOnError)
	only := fs.String("only", "", "regenerate a single experiment (fig3, fig4a, fig4b, fig4c, fig8, fig9, table1..table4, dataflow, energy, link, feasibility, tiling, isi, ringlock, bitwidth, gemmquant)")
	jsonOut := fs.Bool("json", false, "dump every experiment's structured rows as JSON instead of text tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *jsonOut {
		return experiments.WriteJSON(out, experiments.CollectDataset())
	}

	gens := []struct {
		name string
		run  func() string
	}{
		{"table1", experiments.FormatTableI},
		{"table2", experiments.FormatTableII},
		{"fig3", func() string {
			return experiments.FormatFig3(experiments.Fig3(experiments.DefaultFig3Params()))
		}},
		{"fig4a", func() string {
			return experiments.FormatFig4a([]float64{0.02, 0.03, 0.05, 0.1})
		}},
		{"fig4b", func() string {
			return experiments.FormatFig4b(experiments.Fig4b(
				[]float64{0.02, 0.03, 0.05},
				[]float64{5e9, 10e9, 20e9, 40e9}))
		}},
		{"fig4c", func() string {
			return experiments.FormatFig4c(experiments.Fig4c([]float64{0.02, 0.03, 0.05}, 40))
		}},
		{"table3", func() string { return experiments.FormatTableIII(core.DefaultConfig()) }},
		{"fig8", func() string { return experiments.FormatFig8(experiments.Fig8()) }},
		{"fig9", func() string { return experiments.FormatFig9(experiments.Fig9(core.DefaultConfig())) }},
		{"table4", func() string { return experiments.FormatTableIV(experiments.TableIV()) }},
		// Beyond-the-paper analyses (EXPERIMENTS.md).
		{"dataflow", func() string { return experiments.FormatDataflow(experiments.DataflowComparison()) }},
		{"energy", func() string { return experiments.FormatEnergy(experiments.EnergyRefinement()) }},
		{"link", experiments.FormatLink},
		{"feasibility", func() string { return experiments.FormatFeasibility(experiments.FeasibilityReport()) }},
		{"tiling", func() string {
			return "Off-chip row-band tiling (20 pJ/B DRAM)\n" + sim.PlanModel(core.DefaultConfig(), nn.VGG16()).String() + "\n"
		}},
		{"isi", formatISI},
		{"ringlock", func() string {
			rep := control.NewRingLock(1).Run(600, 2*units.Nano, 2*units.Pico, 20*units.Pico)
			return "Ring thermal lock (2 nm fab offset, 2 pm/step ramp, 20 pm sine)\n" + rep.String() + "\n"
		}},
		{"bitwidth", func() string {
			return experiments.FormatBitwidth(experiments.BitwidthSweep([]int{3, 4, 5, 6, 8, 10}, 60))
		}},
		{"gemmquant", func() string {
			return experiments.FormatGEMMQuant(experiments.GEMMQuantSweep([]int{2, 3, 4, 5, 6, 8, 10}, 64))
		}},
	}

	found := false
	for _, g := range gens {
		if *only != "" && g.name != *only {
			continue
		}
		found = true
		fmt.Fprintf(out, "==== %s ====\n%s\n", g.name, g.run())
	}
	if !found {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	return nil
}

// formatISI tabulates the worst-case intersymbol interference of the
// sample-resolved 9-wavelength optical chain across symbol rates for
// both ring couplings.
func formatISI() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Time-domain ISI, % of full scale (9 wavelengths, staggered toggling)")
	fmt.Fprintln(&b, "rate(GHz)  k^2=0.02  k^2=0.03")
	for _, rate := range []float64{5 * units.Giga, 8 * units.Giga, 20 * units.Giga} {
		fmt.Fprintf(&b, "%9.0f  %8.2f  %8.2f\n", rate/units.Giga,
			100*waveform.ISIPenalty(9, rate, 0.02), 100*waveform.ISIPenalty(9, rate, 0.03))
	}
	return b.String()
}
