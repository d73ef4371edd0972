package experiments

import (
	"fmt"
	"strings"

	"albireo/internal/baseline"
	"albireo/internal/core"
	"albireo/internal/device"
	"albireo/internal/nn"
	"albireo/internal/perf"
	"albireo/internal/units"
)

// Fig8Row is one accelerator/network cell of Figure 8: the photonic
// comparison at the 60 W budget with conservative devices.
type Fig8Row struct {
	Model   string
	Design  string
	Latency float64
	Energy  float64
	EDP     float64
	Power   float64
}

// Fig8 evaluates all four CNNs on PIXEL, DEAP-CNN, Albireo-9, and
// Albireo-27.
func Fig8() []Fig8Row {
	deap := baseline.NewDEAPCNN()
	pixel := baseline.NewPIXEL()
	var rows []Fig8Row
	for _, m := range nn.Benchmarks() {
		px := pixel.Evaluate(m)
		rows = append(rows, Fig8Row{m.Name, "PIXEL", px.Latency, px.Energy, px.EDP, px.Power})
		dp := deap.Evaluate(m)
		rows = append(rows, Fig8Row{m.Name, "DEAP-CNN", dp.Latency, dp.Energy, dp.EDP, dp.Power})
		a9 := perf.Evaluate(core.DefaultConfig(), m)
		rows = append(rows, Fig8Row{m.Name, "Albireo-9", a9.Latency, a9.Energy, a9.EDP, a9.Power})
		a27 := perf.Evaluate(core.Albireo27(), m)
		rows = append(rows, Fig8Row{m.Name, "Albireo-27", a27.Latency, a27.Energy, a27.EDP, a27.Power})
	}
	return rows
}

// FormatFig8 renders the comparison.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: photonic accelerator comparison (conservative devices, 60 W budget)")
	fmt.Fprintln(&b, "model       design       latency(ms)  energy(mJ)  EDP(mJ*ms)  power(W)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s  %-11s  %11.4f  %10.3f  %10.4f  %8.1f\n",
			r.Model, r.Design, r.Latency*units.Kilo, r.Energy*units.Kilo, r.EDP*units.Mega, r.Power)
	}
	// The paper quotes Figure 8 as baseline/Albireo ratios averaged
	// over the networks, whose rows run PIXEL, DEAP-CNN, Albireo-9,
	// Albireo-27.
	fmt.Fprintf(&b, "\n%-27s", "baseline/Albireo ratio")
	for i := 0; i < len(rows); i += 4 {
		fmt.Fprintf(&b, "  %9s", rows[i].Model)
	}
	fmt.Fprintln(&b, "    average")
	for _, q := range []struct {
		name           string
		base, alb, col int // designs within a network's rows; 0 latency, 1 energy, 2 EDP
	}{
		{"PIXEL/Albireo-9 latency", 0, 2, 0}, {"DEAP-CNN/Albireo-9 latency", 1, 2, 0},
		{"PIXEL/Albireo-27 latency", 0, 3, 0}, {"DEAP-CNN/Albireo-27 latency", 1, 3, 0},
		{"PIXEL/Albireo-27 energy", 0, 3, 1}, {"PIXEL/Albireo-27 EDP", 0, 3, 2}, {"DEAP-CNN/Albireo-27 EDP", 1, 3, 2},
	} {
		fmt.Fprintf(&b, "%-27s", q.name)
		var sum float64
		for i := 0; i < len(rows); i += 4 {
			base, alb := rows[i+q.base], rows[i+q.alb]
			r := [3]float64{base.Latency / alb.Latency, base.Energy / alb.Energy, base.EDP / alb.EDP}[q.col]
			sum += r
			fmt.Fprintf(&b, "  %9.2f", r)
		}
		fmt.Fprintf(&b, "  %9.2f\n", sum/float64(len(rows)/4))
	}
	return b.String()
}

// Excluded evaluates VGG16 on Albireo-27 next to HolyLight and
// DNNARA scaled to 60 W, the designs Section V leaves out of Figure 8.
func Excluded() []Fig8Row {
	m := nn.VGG16()
	alb := perf.Evaluate(core.Albireo27(), m)
	rows := []Fig8Row{{m.Name, "Albireo-27", alb.Latency, alb.Energy, alb.EDP, alb.Power}}
	for _, r := range []baseline.Result{baseline.NewHolyLight().Evaluate(m), baseline.NewDNNARA().Evaluate(m)} {
		rows = append(rows, Fig8Row{m.Name, r.Design, r.Latency, r.Energy, r.EDP, r.Power})
	}
	return rows
}

// FormatExcluded renders the Section V exclusion at the 60 W budget.
func FormatExcluded(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Excluded baselines (Section V claim)")
	fmt.Fprintln(&b, "design                    VGG16 latency(ms)  power(W)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s  %18.3f  %8.1f\n", r.Design, r.Latency*units.Kilo, r.Power)
	}
	return b.String()
}

// Fig9Row is one component slice of the Figure 9 area pie.
type Fig9Row struct {
	Component string
	AreaMM2   float64
	Fraction  float64
}

// Fig9 computes the chip area breakdown for a configuration.
func Fig9(cfg core.Config) []Fig9Row {
	a := perf.NewCensus(cfg).Area()
	total := a.Total()
	mk := func(name string, m2 float64) Fig9Row {
		return Fig9Row{name, m2 * units.Mega, m2 / total}
	}
	return []Fig9Row{
		mk("AWG", a.AWG),
		mk("StarCoupler", a.StarCoupler),
		mk("Laser", a.Laser),
		mk("MZM", a.MZM),
		mk("MRR", a.MRR),
		mk("Photodiode", a.Photodiode),
		mk("SRAM", a.SRAM),
		mk("YBranch", a.YBranch),
	}
}

// FormatFig9 renders the breakdown.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 9: Albireo chip area breakdown")
	fmt.Fprintln(&b, "component    area(mm^2)  fraction")
	var total float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s  %10.3f  %7.1f%%\n", r.Component, r.AreaMM2, r.Fraction*100)
		total += r.AreaMM2
	}
	fmt.Fprintf(&b, "%-11s  %10.3f\n", "TOTAL", total)
	return b.String()
}

// TableIRow is one device row of Table I.
type TableIRow struct {
	Device                             string
	Conservative, Moderate, Aggressive float64 // watts
}

// TableI returns the device power estimates.
func TableI() []TableIRow {
	c := device.Powers(device.Conservative)
	m := device.Powers(device.Moderate)
	a := device.Powers(device.Aggressive)
	return []TableIRow{
		{"MRR", c.MRR, m.MRR, a.MRR},
		{"MZM", c.MZM, m.MZM, a.MZM},
		{"Laser", c.Laser, m.Laser, a.Laser},
		{"TIA", c.TIA, m.TIA, a.TIA},
		{"ADC", c.ADC, m.ADC, a.ADC},
		{"DAC", c.DAC, m.DAC, a.DAC},
	}
}

// FormatTableI renders Table I.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table I: device power estimates (mW)")
	fmt.Fprintln(&b, "device  conservative  moderate  aggressive")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s  %12.2f  %8.3f  %10.3f\n",
			r.Device, r.Conservative*units.Kilo, r.Moderate*units.Kilo, r.Aggressive*units.Kilo)
	}
	return b.String()
}

// FormatTableII renders the optical device parameters.
func FormatTableII(o device.OpticalParams) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table II: optical device parameters")
	fmt.Fprintf(&b, "waveguide neff/ng        %.2f / %.2f @ 1550 nm\n", o.NEff, o.NGroup)
	fmt.Fprintf(&b, "waveguide loss           %.1f dB/cm straight, %.1f dB/cm bent\n", o.StraightLossDB/100, o.BentLossDB/100)
	fmt.Fprintf(&b, "Y-branch loss            %.1f dB\n", o.YBranchLossDB)
	fmt.Fprintf(&b, "MRR radius/k^2/FSR       %.0f um / %.2f / %.1f nm\n", o.RingRadius*units.Mega, o.RingK2, o.RingFSR*units.Giga)
	fmt.Fprintf(&b, "MZM loss/area            %.1f dB / %.0fx%.0f um^2\n", o.MZMLossDB, 300.0, 50.0)
	fmt.Fprintf(&b, "star coupler loss        %.1f dB\n", o.StarLossDB)
	fmt.Fprintf(&b, "AWG channels/loss/xtalk  %d / %.1f dB / %.0f dB\n", o.AWGChannels, o.AWGLossDB, o.AWGCrosstalkDB)
	fmt.Fprintf(&b, "laser RIN                %.0f dBc/Hz\n", o.LaserRINdBcHz)
	fmt.Fprintf(&b, "PD responsivity/dark     %.1f A/W / %.0f pA\n", o.PDResponsivity, o.PDDarkCurrent*units.Tera)
	return b.String()
}

// TableIIIPower is Table III: the power breakdown of an Ng-PLCG chip
// under every device estimate, one column per estimate.
type TableIIIPower struct {
	Ng      int
	Columns []perf.PowerBreakdown
}

// TableIII computes the chip power breakdown for every estimate.
func TableIII(cfg core.Config) TableIIIPower {
	census := perf.NewCensus(cfg)
	t := TableIIIPower{Ng: cfg.Ng}
	for _, e := range device.Estimates {
		t.Columns = append(t.Columns, census.Power(e))
	}
	return t
}

// FormatTableIII renders the breakdown with per-row portions.
func FormatTableIII(t TableIIIPower) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: device power breakdown (Ng=%d)\n", t.Ng)
	fmt.Fprintln(&b, "row      Albireo-C            Albireo-M            Albireo-A")
	row := func(name string, f func(perf.PowerBreakdown) float64) {
		fmt.Fprintf(&b, "%-6s", name)
		for _, p := range t.Columns {
			v := f(p)
			fmt.Fprintf(&b, "  %7.2f W (%5.1f%%)", v, 100*v/p.Total())
		}
		fmt.Fprintln(&b)
	}
	row("MRR", func(p perf.PowerBreakdown) float64 { return p.MRR })
	row("MZI", func(p perf.PowerBreakdown) float64 { return p.MZM })
	row("Laser", func(p perf.PowerBreakdown) float64 { return p.Laser })
	row("TIA", func(p perf.PowerBreakdown) float64 { return p.TIA })
	row("DAC", func(p perf.PowerBreakdown) float64 { return p.DAC })
	row("ADC", func(p perf.PowerBreakdown) float64 { return p.ADC })
	row("Cache", func(p perf.PowerBreakdown) float64 { return p.Cache })
	row("Total", func(p perf.PowerBreakdown) float64 { return p.Total() })
	return b.String()
}

// TableIVRow is one column of Table IV: a design evaluated on a model.
type TableIVRow struct {
	Design            string
	Model             string
	Latency           float64
	Energy            float64
	EDP               float64
	GOPSPerMM2        float64
	GOPSPerMM2Active  float64
	GOPSPerWattPerMM2 float64
	Reported          bool // true for published electronic rows
}

// TableIV builds the electronic comparison for AlexNet and VGG16:
// reported Eyeriss/ENVISION/UNPU rows plus our computed Albireo
// C/M/A columns.
func TableIV() []TableIVRow {
	var rows []TableIVRow
	for _, modelName := range []string{"AlexNet", "VGG16"} {
		for _, e := range baseline.ReportedFor(modelName) {
			rows = append(rows, TableIVRow{
				Design:            e.Accelerator + " (" + e.Technology + ")",
				Model:             modelName,
				Latency:           e.Latency,
				Energy:            e.Energy,
				EDP:               e.EDP,
				GOPSPerMM2:        e.GOPSPerMM2,
				GOPSPerWattPerMM2: e.GOPSPerWattPerMM2,
				Reported:          true,
			})
		}
		m, _ := nn.ByName(modelName)
		for _, est := range device.Estimates {
			cfg := core.DefaultConfig()
			cfg.Estimate = est
			r := perf.Evaluate(cfg, m)
			rows = append(rows, TableIVRow{
				Design:            "Albireo-" + est.String(),
				Model:             modelName,
				Latency:           r.Latency,
				Energy:            r.Energy,
				EDP:               r.EDP,
				GOPSPerMM2:        r.GOPSPerMM2(),
				GOPSPerMM2Active:  r.GOPSPerMM2Active(),
				GOPSPerWattPerMM2: r.GOPSPerWattPerMM2(),
			})
		}
	}
	return rows
}

// FormatTableIV renders the comparison. Albireo rows carry the
// active-area normalization (Table IV footnote c); reported electronic
// rows do not publish it.
func FormatTableIV(rows []TableIVRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table IV: CNN inference comparison with digital accelerators")
	fmt.Fprintln(&b, "model    design           latency(ms)  energy(mJ)    EDP(mJ*ms)  GOPS/mm2  GOPS/W/mm2")
	for _, r := range rows {
		src := ""
		if r.Reported {
			src = " [reported]"
		}
		active := ""
		if r.GOPSPerMM2Active > 0 {
			active = fmt.Sprintf("  (active: %.0f)", r.GOPSPerMM2Active)
		}
		fmt.Fprintf(&b, "%-7s  %-15s  %11.3f  %10.3f  %12.4f  %8.1f  %10.2f%s%s\n",
			r.Model, r.Design, r.Latency*units.Kilo, r.Energy*units.Kilo, r.EDP*units.Mega,
			r.GOPSPerMM2, r.GOPSPerWattPerMM2, src, active)
	}
	return b.String()
}

// LayerTable is the Section IV-A per-layer analysis of one network
// on one configuration.
type LayerTable struct {
	Model    string
	Estimate device.Estimate
	Ng       int
	Layers   []perf.LayerResult
}

// Layers evaluates every compute layer of m on cfg.
func Layers(cfg core.Config, m nn.Model) LayerTable {
	return LayerTable{m.Name, cfg.Estimate, cfg.Ng, perf.EvaluateLayers(cfg, m)}
}

// FormatLayers renders the per-layer analysis.
func FormatLayers(t LayerTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-layer analysis: %s on Albireo-%s (Ng=%d)\n", t.Model, t.Estimate, t.Ng)
	fmt.Fprintln(&b, "layer         kind     cycles       latency(us)  energy(uJ)")
	for _, lr := range t.Layers {
		fmt.Fprintf(&b, "%-12s  %-7s  %-11d  %11.2f  %10.2f\n",
			lr.Layer.Name, lr.Layer.Kind, lr.Cycles, lr.Latency*units.Mega, lr.Energy*units.Mega)
	}
	return b.String()
}
