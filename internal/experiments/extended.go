package experiments

import (
	"fmt"
	"strings"

	"albireo/internal/circuit"
	"albireo/internal/core"
	"albireo/internal/nn"
	"albireo/internal/obs"
	"albireo/internal/perf"
	"albireo/internal/sim"
	"albireo/internal/tensor"
	"albireo/internal/units"
	"albireo/internal/waveform"
)

// Extended experiments: analyses this repository adds beyond the
// paper's figures (see EXPERIMENTS.md "Beyond-the-paper analyses").

// DataflowRow compares the two PLCG dataflows on one network.
type DataflowRow struct {
	Model     string
	Dataflow  string
	Cycles    int64
	TrafficMB float64
	EnergyUJ  float64
}

// DataflowComparison runs the Section III-B ablation on every
// benchmark.
func DataflowComparison() []DataflowRow {
	var rows []DataflowRow
	for _, m := range nn.Benchmarks() {
		df, ws := sim.Compare(core.DefaultConfig(), m)
		rows = append(rows,
			DataflowRow{m.Name, sim.DepthFirst.String(), df.Cycles, float64(df.Traffic) / units.Mega, df.SRAMEnergy * units.Mega},
			DataflowRow{m.Name, sim.WeightStationary.String(), ws.Cycles, float64(ws.Traffic) / units.Mega, ws.SRAMEnergy * units.Mega},
		)
	}
	return rows
}

// FormatDataflow renders the comparison.
func FormatDataflow(rows []DataflowRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Dataflow ablation (Section III-B): depth-first vs weight-stationary")
	fmt.Fprintln(&b, "model       dataflow           cycles       traffic(MB)  movement(uJ)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s  %-17s  %-11d  %11.2f  %12.2f\n",
			r.Model, r.Dataflow, r.Cycles, r.TrafficMB, r.EnergyUJ)
	}
	return b.String()
}

// EnergyRow is the refined-energy comparison for one network.
type EnergyRow struct {
	Model      string
	FlatMJ     float64
	GatedMJ    float64
	SRAMMJ     float64
	SavingsPct float64
}

// EnergyRefinement computes the gating + traffic refinement for every
// benchmark on Albireo-C.
func EnergyRefinement() []EnergyRow {
	var rows []EnergyRow
	for _, m := range nn.Benchmarks() {
		eb := perf.EvaluateEnergy(core.DefaultConfig(), m)
		rows = append(rows, EnergyRow{
			Model:      m.Name,
			FlatMJ:     eb.Flat * units.Kilo,
			GatedMJ:    eb.Gated * units.Kilo,
			SRAMMJ:     eb.SRAM * units.Kilo,
			SavingsPct: eb.Savings() * 100,
		})
	}
	return rows
}

// FormatEnergy renders the refinement.
func FormatEnergy(rows []EnergyRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Energy accounting refinement (idle-PLCG gating + explicit SRAM traffic)")
	fmt.Fprintln(&b, "model       flat(mJ)  gated(mJ)  sram(mJ)  savings")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s  %8.3f  %9.3f  %8.4f  %6.1f%%\n",
			r.Model, r.FlatMJ, r.GatedMJ, r.SRAMMJ, r.SavingsPct)
	}
	return b.String()
}

// LinkDesign is the channel-resolved distribution budget of one chip
// design.
type LinkDesign struct {
	Ng     int
	Budget circuit.Budget
}

// LinkReport is the WDM link study: both designs' budgets plus the
// default channel plan's fit and inter-unit leakage.
type LinkReport struct {
	Designs  []LinkDesign
	Plan     circuit.ChannelPlan
	PlanFits bool
	Leakage  float64
}

// LinkBudgets analyzes the 63-channel link at 2 mW per laser for the
// 9- and 27-PLCG designs.
func LinkBudgets() LinkReport {
	var r LinkReport
	for _, ng := range []int{9, 27} {
		r.Designs = append(r.Designs, LinkDesign{ng, circuit.NewLink(ng, 63, 2*units.Milli).Analyze()})
	}
	r.Plan = circuit.NewChannelPlan(21, 3)
	r.PlanFits = r.Plan.Fits()
	r.Leakage = r.Plan.InterUnitIsolation(1)
	return r
}

// FormatLink renders the channel-resolved distribution budget.
func FormatLink(r LinkReport) string {
	var b strings.Builder
	fmt.Fprintln(&b, "WDM link budget (63 channels, 2 mW lasers)")
	fmt.Fprintln(&b, "design  worst(uW)  best(uW)  spread(dB)  loss(dB)  worst-I(uA)")
	for _, d := range r.Designs {
		bb := d.Budget
		fmt.Fprintf(&b, "Ng=%-3d  %9.3f  %8.3f  %10.3f  %8.1f  %11.3f\n",
			d.Ng, bb.WorstPower*units.Mega, bb.BestPower*units.Mega, bb.SpreadDB,
			bb.EndToEndLossDB, bb.WorstCurrent*units.Mega)
	}
	fmt.Fprintf(&b, "channel plan: %v (fits AWG FSR: %v, inter-unit leakage %.2g)\n",
		r.Plan, r.PlanFits, r.Leakage)
	return b.String()
}

// FeasibilityRow summarizes one network's memory-system fit.
type FeasibilityRow struct {
	Model         string
	Layers        int
	CacheMisfits  int
	BufferMisfits int
}

// FeasibilityReport checks every benchmark against the memory
// subsystems.
func FeasibilityReport() []FeasibilityRow {
	var rows []FeasibilityRow
	for _, m := range nn.Benchmarks() {
		mf := sim.CheckModel(core.DefaultConfig(), m)
		rows = append(rows, FeasibilityRow{
			Model:         m.Name,
			Layers:        len(mf.Layers),
			CacheMisfits:  mf.CacheMisfits,
			BufferMisfits: mf.BufferMisfits,
		})
	}
	return rows
}

// FormatFeasibility renders the report.
func FormatFeasibility(rows []FeasibilityRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Memory-system feasibility (16 kB kernel caches, 256 kB buffer)")
	fmt.Fprintln(&b, "model       layers  kernel-cache-misfits  buffer-misfits")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s  %6d  %20d  %14d\n", r.Model, r.Layers, r.CacheMisfits, r.BufferMisfits)
	}
	fmt.Fprintln(&b, "cache misfits stream weights from the buffer (FC layers);")
	fmt.Fprintln(&b, "buffer misfits tile activations through off-chip memory.")
	return b.String()
}

// ISIRow is the worst-case intersymbol interference of the
// sample-resolved 9-wavelength optical chain at one symbol rate, as a
// fraction of full scale, for the k^2 = 0.02 and 0.03 rings.
type ISIRow struct {
	Rate                 float64
	Penalty02, Penalty03 float64
}

// ISISweep runs the time-domain ISI study at 5, 8 and 20 GHz.
func ISISweep() []ISIRow {
	var rows []ISIRow
	for _, rate := range []float64{5 * units.Giga, 8 * units.Giga, 20 * units.Giga} {
		rows = append(rows, ISIRow{rate, waveform.ISIPenalty(9, rate, 0.02), waveform.ISIPenalty(9, rate, 0.03)})
	}
	return rows
}

// FormatISI renders the ISI sweep.
func FormatISI(rows []ISIRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Time-domain ISI, % of full scale (9 wavelengths, staggered toggling)")
	fmt.Fprintln(&b, "rate(GHz)  k^2=0.02  k^2=0.03")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9.0f  %8.2f  %8.2f\n", r.Rate/units.Giga, 100*r.Penalty02, 100*r.Penalty03)
	}
	return b.String()
}

// ActivityRow is one device class of the observed-activity check.
type ActivityRow struct {
	Class              string
	Devices            int
	Observed, Analytic int64
}

// ActivityCheck is one instrumented functional convolution: its
// geometry and, per device class, the event counts the chip recorded
// next to the closed-form activity model's.
type ActivityCheck struct {
	Z, AY, AX, M, K, Stride, Pad int
	Rows                         []ActivityRow
}

// ObservedActivity runs a small convolution through an instrumented
// chip and pairs the recorded per-device-class event counts with the
// closed-form activity model and the device census - validating that
// the activity factors behind the Table III power numbers match what
// the functional simulator actually does.
func ObservedActivity(cfg core.Config) ActivityCheck {
	c := ActivityCheck{Z: 6, AY: 16, AX: 16, M: 12, K: 3, Stride: 1, Pad: 1}
	chip := core.NewChip(cfg)
	reg := obs.NewRegistry()
	chip.Instrument(reg, nil)
	a := tensor.RandomVolume(c.Z, c.AY, c.AX, 5)
	w := tensor.RandomKernels(c.M, c.Z, c.K, c.K, 6)
	chip.Conv(a, w, tensor.ConvConfig{Stride: c.Stride, Pad: c.Pad}, true)

	got := core.ObservedActivity(reg.Snapshot())
	want := cfg.ExpectedActivity(nn.Layer{Kind: nn.Conv, InZ: c.Z, InY: c.AY, InX: c.AX, OutZ: c.M, KY: c.K, KX: c.K, Stride: c.Stride, Pad: c.Pad})
	census := perf.NewCensus(cfg)
	c.Rows = []ActivityRow{
		{"weight MZMs", census.WeightMZMs, got.MZMPrograms, want.MZMPrograms},
		{"switching MRRs", census.SwitchingMRRs, got.MRRSwitches, want.MRRSwitches},
		{"balanced PDs", census.Photodiodes, got.PDReads, want.PDReads},
		{"ADCs", census.ADCs, got.ADCConversions, want.ADCConversions},
		{"PLCG steps", cfg.Ng, got.Steps, want.Steps},
	}
	return c
}

// FormatActivity renders the check, flagging every disagreement.
func FormatActivity(c ActivityCheck) string {
	var b strings.Builder
	fmt.Fprintf(&b, "functional run: %d kernels %dx%dx%d over a %dx%dx%d input (stride %d, pad %d)\n\n",
		c.M, c.Z, c.K, c.K, c.Z, c.AY, c.AX, c.Stride, c.Pad)
	fmt.Fprintln(&b, "device class     devices  observed events  analytic events  events/device")
	mismatch := false
	for _, r := range c.Rows {
		flag := ""
		if r.Observed != r.Analytic {
			flag = "  <-- MISMATCH"
			mismatch = true
		}
		fmt.Fprintf(&b, "%-15s  %7d  %15d  %15d  %13.1f%s\n",
			r.Class, r.Devices, r.Observed, r.Analytic, float64(r.Observed)/float64(r.Devices), flag)
	}
	if mismatch {
		fmt.Fprintln(&b, "\nWARNING: observed device activity disagrees with the analytic activity model")
	} else {
		fmt.Fprintln(&b, "\nobserved activity matches the analytic model exactly")
	}
	return b.String()
}

// WorkloadRow is one non-CNN model of the GEMM workload zoo on
// Albireo-C.
type WorkloadRow struct {
	Model        string
	Layers       int
	MACs, Cycles int64
	Latency      float64 // seconds
	Energy       float64 // joules
	Utilization  float64
}

// WorkloadZoo evaluates the MLP head, LSTM sequence and transformer
// block through the same Algorithm 2 mapping the paper benchmarks use:
// the GEMM-family kinds schedule on the photonic block mapping, so
// latency, energy and utilization compare directly with the CNN rows.
func WorkloadZoo(cfg core.Config) []WorkloadRow {
	var rows []WorkloadRow
	for _, m := range nn.WorkloadModels() {
		mapping := cfg.MapModel(m)
		r := perf.Evaluate(cfg, m)
		rows = append(rows, WorkloadRow{m.Name, len(mapping.Layers), m.TotalMACs(), mapping.TotalCycles,
			r.Latency, r.Energy, mapping.Utilization()})
	}
	return rows
}

// FormatWorkloads renders the zoo.
func FormatWorkloads(rows []WorkloadRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "GEMM workload zoo: non-CNN latency and energy on Albireo-C")
	fmt.Fprintln(&b, "model              layers      MACs     cycles  latency(us)  energy(uJ)  util(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-17s  %6d  %8d  %9d  %11.3f  %10.3f  %7.1f\n",
			r.Model, r.Layers, r.MACs, r.Cycles, r.Latency*units.Mega, r.Energy*units.Mega, r.Utilization*100)
	}
	return b.String()
}

// ScaleOut runs the 1-8 chip strong-scaling curve of every benchmark:
// element i of a curve is the network on i+1 chips.
func ScaleOut() [][]perf.Result {
	var curves [][]perf.Result
	for _, m := range nn.Benchmarks() {
		curves = append(curves, perf.ScaleOutCurve(core.DefaultConfig(), m, 8))
	}
	return curves
}

// FormatScaleOut renders the curves. Efficiency is the one-chip
// latency over chips x latency.
func FormatScaleOut(curves [][]perf.Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Multi-chip strong scaling on Albireo-C")
	fmt.Fprintln(&b, "model       chips  latency(ms)  power(W)  energy(mJ)  EDP(mJ*ms)  efficiency")
	for _, curve := range curves {
		for i, r := range curve {
			fmt.Fprintf(&b, "%-10s  %5d  %11.4f  %8.1f  %10.3f  %10.4f  %10.2f\n", r.Model, i+1,
				r.Latency*units.Kilo, r.Power, r.Energy*units.Kilo, r.EDP*units.Mega, curve[0].Latency/r.Latency/float64(i+1))
		}
	}
	return b.String()
}
