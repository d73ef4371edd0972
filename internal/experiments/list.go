package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"albireo/internal/control"
	"albireo/internal/core"
	"albireo/internal/device"
	"albireo/internal/nn"
	"albireo/internal/perf"
	"albireo/internal/units"
)

// Experiment is one entry of the reproduction. Run computes its rows
// once and renders its text table from those same rows; the JSON dump
// carries the rows.
type Experiment struct {
	Name string
	Run  func() (rows any, text string)
}

func entry[R any](name string, rows func() R, format func(R) string) Experiment {
	return Experiment{name, func() (any, string) {
		r := rows()
		return r, format(r)
	}}
}

// All lists every experiment in print order: the paper's tables and
// figures, the analyses beyond the paper, then the design ablations
// and the end-to-end fidelity studies (EXPERIMENTS.md).
func All() []Experiment {
	cfg := core.DefaultConfig()
	k2s := []float64{0.02, 0.03, 0.05}
	return []Experiment{
		entry("table1", TableI, FormatTableI),
		entry("table2", device.Optics, FormatTableII),
		entry("fig3", Fig3, FormatFig3),
		entry("fig4a", func() Fig4aSpectra { return Fig4a([]float64{0.02, 0.03, 0.05, 0.1}, 2*units.Nano, 41) }, FormatFig4a),
		entry("fig4b", func() []Fig4bRow {
			return Fig4b(k2s, []float64{5 * units.Giga, 10 * units.Giga, 20 * units.Giga, 40 * units.Giga})
		}, FormatFig4b),
		entry("fig4c", func() []Fig4cRow { return Fig4c(k2s, 40) }, FormatFig4c),
		entry("table3", func() TableIIIPower { return TableIII(cfg) }, FormatTableIII),
		entry("fig8", Fig8, FormatFig8),
		entry("fig9", func() []Fig9Row { return Fig9(cfg) }, FormatFig9),
		entry("table4", TableIV, FormatTableIV),
		entry("activity", func() ActivityCheck { return ObservedActivity(cfg) }, FormatActivity),
		entry("layers", func() LayerTable { return Layers(cfg, nn.VGG16()) }, FormatLayers),
		entry("excluded", Excluded, FormatExcluded),
		entry("dataflow", DataflowComparison, FormatDataflow),
		entry("energy", EnergyRefinement, FormatEnergy),
		entry("scaleout", ScaleOut, FormatScaleOut),
		entry("workloads", func() []WorkloadRow { return WorkloadZoo(cfg) }, FormatWorkloads),
		entry("link", LinkBudgets, FormatLink),
		entry("feasibility", FeasibilityReport, FormatFeasibility),
		entry("tiling", func() perf.ModelTiling { return perf.PlanModel(cfg, nn.VGG16()) }, func(t perf.ModelTiling) string {
			return "Off-chip row-band tiling (20 pJ/B DRAM)\n" + t.String() + "\n"
		}),
		entry("isi", ISISweep, FormatISI),
		entry("ringlock", func() control.LockReport {
			return control.NewRingLock(1).Run(600, 2*units.Nano, 2*units.Pico, 20*units.Pico)
		}, func(r control.LockReport) string {
			return "Ring thermal lock (2 nm fab offset, 2 pm/step ramp, 20 pm sine)\n" + r.String() + "\n"
		}),
		entry("bitwidth", func() []BitwidthRow { return BitwidthSweep([]int{3, 4, 5, 6, 8, 10}, 60) }, FormatBitwidth),
		entry("gemmquant", func() []GEMMQuantRow { return GEMMQuantSweep([]int{2, 3, 4, 5, 6, 8, 10}, 64) }, FormatGEMMQuant),
		entry("k2", K2Sweep, FormatK2),
		entry("nd", NdSweep, formatSweep("Nd sweep (receptive-field parallelism) on VGG16:",
			"larger Nd means more wavelengths per PLCU and lower crosstalk-\nlimited precision; the paper settles on Nd=5 (21 wavelengths).\n")),
		entry("nu", NuSweep, formatSweep("Nu sweep (channels per PLCG) on VGG16:",
			"* exceeds the 64-wavelength distribution budget (Section III-B).\n")),
		entry("ng", NgSweep, formatSweep("Ng sweep (kernel parallelism / chip scaling) on VGG16:",
			"the paper evaluates Ng=9 (22.7 W) and the 60 W-budget Ng=27.\n")),
		entry("fc", FCSweep, formatSweep("FC mapping ablation on AlexNet:",
			"the paper's prose describes the narrow mapping but its AlexNet\nlatency matches the wide one; see DESIGN.md and EXPERIMENTS.md.\n")),
		entry("drive", DriveNonlinearity, FormatDrive),
		entry("fidelity", Fidelity, FormatFidelity),
		entry("faults", Faults, FormatFaults),
	}
}

// WriteJSON writes the rows of every experiment as one indented JSON
// object keyed by experiment name, in list order.
func WriteJSON(w io.Writer, exps []Experiment) error {
	out := []byte("{")
	for i, e := range exps {
		rows, _ := e.Run()
		raw, err := json.MarshalIndent(rows, "  ", "  ")
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = fmt.Appendf(out, "\n  %q: %s", e.Name, raw)
	}
	out = append(out, "\n}\n"...)
	_, err := w.Write(out)
	return err
}
