package perf

import (
	"albireo/internal/core"
	"albireo/internal/device"
	"albireo/internal/nn"
	"albireo/internal/sim"
)

// EnergyBreakdown refines the paper's flat energy accounting
// (chip power x latency) with two corrections a deployed chip would
// apply:
//
//   - power gating: a layer whose final kernel pass fills only part of
//     the Ng PLCGs (or whose depthwise schedule idles units) does not
//     draw the idle groups' MRR/MZM/TIA/ADC power; and
//   - data movement: SRAM traffic energy from the dataflow simulator is
//     added explicitly (the paper buries it in the 0.03 W cache row).
//
// The flat model remains the reproduction target for Table IV; this
// model bounds how much it overestimates.
type EnergyBreakdown struct {
	Model string
	// Flat is the paper-style energy: total chip power x latency.
	Flat float64
	// Gated is the energy with idle PLCGs power-gated per layer.
	Gated float64
	// SRAM is the explicit data-movement energy (depth-first
	// dataflow).
	SRAM float64
	// Latency is the inference latency (unchanged by gating).
	Latency float64
}

// Total returns the refined energy: gated compute plus data movement.
func (e EnergyBreakdown) Total() float64 { return e.Gated + e.SRAM }

// Savings returns the fraction of flat energy the refinement removes
// (negative if traffic outweighs gating).
func (e EnergyBreakdown) Savings() float64 {
	if e.Flat <= 0 {
		return 0
	}
	return 1 - e.Total()/e.Flat
}

// perGroupPower returns the power of one PLCG's private devices (its
// share of the gateable chip power) and the shared floor that stays on
// regardless of activity (lasers, signal-generation modulators and
// their DACs, global cache).
func perGroupPower(cfg core.Config, e device.Estimate) (group, floor float64) {
	p := device.Powers(e)
	c := NewCensus(cfg)
	perPLCU := float64(2*cfg.Nm*cfg.Nd)*p.MRR + float64(cfg.Nm)*(p.MZM+p.DAC)
	group = float64(cfg.Nu)*perPLCU + float64(cfg.Nd)*(p.TIA+p.ADC)
	floor = float64(c.Lasers)*p.Laser +
		float64(c.SignalGenMods)*(p.MZM+p.DAC) +
		device.Memory().CachePower
	return group, floor
}

// EvaluateEnergy computes the refined breakdown for one network.
func EvaluateEnergy(cfg core.Config, model nn.Model) EnergyBreakdown {
	census := NewCensus(cfg)
	flatPower := census.Power(cfg.Estimate).Total()
	rate := cfg.ModulationRate()
	group, floor := perGroupPower(cfg, cfg.Estimate)

	var flat, gated, latency float64
	for _, l := range model.Layers {
		if !l.HasMACs() {
			continue
		}
		m := cfg.MapLayer(l)
		t := float64(m.Cycles) / rate
		latency += t
		flat += flatPower * t

		// Average active PLCGs over the layer's kernel passes: full
		// passes use all Ng, the last the kernel remainder.
		active := cfg.ActivePLCGs(l)
		if active <= 0 || active > float64(cfg.Ng) {
			active = float64(cfg.Ng)
		}
		gated += (floor + group*active) * t
	}

	traffic := sim.SimulateModel(cfg, sim.DepthFirst, model)

	return EnergyBreakdown{
		Model:   model.Name,
		Flat:    flat,
		Gated:   gated,
		SRAM:    traffic.SRAMEnergy,
		Latency: latency,
	}
}
