// Command albireo-sim runs the per-layer performance analysis of a
// CNN on an Albireo design (paper Section IV-A: "We perform a
// per-layer analysis to yield latency, energy, and EDP").
//
// Usage:
//
//	albireo-sim -model VGG16 -estimate C -ng 9
//	albireo-sim -model MobileNet -estimate A -ng 27 -layers
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"albireo/internal/core"
	"albireo/internal/device"
	"albireo/internal/nn"
	"albireo/internal/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "albireo-sim:", err)
		os.Exit(1)
	}
}

// run is the whole tool behind a single exit point: flag errors and
// invalid configurations come back as errors instead of mid-logic
// os.Exit calls, so tests can drive the tool end to end.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("albireo-sim", flag.ContinueOnError)
	modelName := fs.String("model", "VGG16", "benchmark model: AlexNet, VGG16, ResNet18, MobileNet")
	estimate := fs.String("estimate", "C", "device estimate: C, M, or A")
	ng := fs.Int("ng", 9, "number of PLCGs (9 or 27 in the paper)")
	layers := fs.Bool("layers", false, "print the per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	model, ok := nn.ByName(*modelName)
	if !ok {
		return fmt.Errorf("unknown model %q (want AlexNet, VGG16, ResNet18, or MobileNet)", *modelName)
	}
	cfg := core.DefaultConfig()
	cfg.Ng = *ng
	switch *estimate {
	case "C":
		cfg.Estimate = device.Conservative
	case "M":
		cfg.Estimate = device.Moderate
	case "A":
		cfg.Estimate = device.Aggressive
	default:
		return fmt.Errorf("unknown estimate %q (want C, M, or A)", *estimate)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	census := perf.NewCensus(cfg)
	power := census.Power(cfg.Estimate)
	r := perf.Evaluate(cfg, model)

	fmt.Fprintf(out, "%s on Albireo-%s (Ng=%d, %.0f GHz modulation)\n",
		model.Name, cfg.Estimate, cfg.Ng, cfg.ModulationRate()/1e9)
	fmt.Fprintf(out, "  MACs:        %.3f G\n", float64(model.TotalMACs())/1e9)
	fmt.Fprintf(out, "  parameters:  %.2f M\n", float64(model.TotalParams())/1e6)
	fmt.Fprintf(out, "  chip power:  %.2f W\n", power.Total())
	fmt.Fprintf(out, "  chip area:   %.1f mm^2 (active %.1f mm^2)\n", r.Area*1e6, r.ActiveArea*1e6)
	fmt.Fprintf(out, "  latency:     %.4f ms\n", r.Latency*1e3)
	fmt.Fprintf(out, "  energy:      %.3f mJ\n", r.Energy*1e3)
	fmt.Fprintf(out, "  EDP:         %.4f mJ*ms\n", r.EDP*1e6)
	fmt.Fprintf(out, "  GOPS/mm^2:   %.1f (active: %.1f)\n", r.GOPSPerMM2(), r.GOPSPerMM2Active())
	fmt.Fprintf(out, "  GOPS/W/mm^2: %.2f (active: %.2f)\n", r.GOPSPerWattPerMM2(), r.GOPSPerWattPerMM2Active())

	if *layers {
		fmt.Fprintln(out, "\nper-layer analysis:")
		fmt.Fprintln(out, "layer         kind     cycles       latency(us)  energy(uJ)  MACs(M)")
		for _, lr := range perf.EvaluateLayers(cfg, model) {
			fmt.Fprintf(out, "%-12s  %-7s  %-11d  %11.2f  %10.2f  %7.1f\n",
				lr.Layer.Name, lr.Layer.Kind, lr.Cycles,
				lr.Latency*1e6, lr.Energy*1e6, float64(lr.MACs)/1e6)
		}
	}
	return nil
}
