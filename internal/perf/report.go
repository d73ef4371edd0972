package perf

import (
	"fmt"

	"albireo/internal/core"
	"albireo/internal/nn"
	"albireo/internal/units"
)

// Result is one network's evaluation on one Albireo design: the rows
// of Table IV and the bars of Figure 8.
type Result struct {
	Model      string
	Design     string
	Latency    float64 // seconds
	Energy     float64 // joules
	EDP        float64 // joule-seconds
	Power      float64 // watts
	MACs       int64
	Area       float64 // m^2, full chip
	ActiveArea float64 // m^2, excluding passive distribution
}

// GOPS returns throughput in giga-operations per second, where - as in
// the paper's Table IV - an operation is one MAC (see DESIGN.md).
func (r Result) GOPS() float64 {
	if r.Latency <= 0 {
		return 0
	}
	return float64(r.MACs) / r.Latency / units.Giga
}

// GOPSPerMM2 returns GOPS normalized by full chip area in mm^2.
func (r Result) GOPSPerMM2() float64 {
	if r.Area <= 0 {
		return 0
	}
	return r.GOPS() / (r.Area * units.Mega)
}

// GOPSPerMM2Active returns GOPS normalized by active area only
// (Table IV footnote c).
func (r Result) GOPSPerMM2Active() float64 {
	if r.ActiveArea <= 0 {
		return 0
	}
	return r.GOPS() / (r.ActiveArea * units.Mega)
}

// GOPSPerWattPerMM2 returns the Table IV efficiency metric
// GOPS/W/mm^2 over the full chip area.
func (r Result) GOPSPerWattPerMM2() float64 {
	if r.Power <= 0 {
		return 0
	}
	return r.GOPSPerMM2() / r.Power
}

// GOPSPerWattPerMM2Active is the active-area variant.
func (r Result) GOPSPerWattPerMM2Active() float64 {
	if r.Power <= 0 {
		return 0
	}
	return r.GOPSPerMM2Active() / r.Power
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s on %s: %.3f ms, %.2f mJ, %.3f mJ*ms",
		r.Model, r.Design, r.Latency*units.Kilo, r.Energy*units.Kilo, r.EDP*units.Mega)
}

// Evaluate runs the analytic model for one network on one Albireo
// configuration: latency from the Algorithm 2 mapping, energy as chip
// power times latency (the accounting the paper's Table IV follows;
// see DESIGN.md), EDP as their product.
func Evaluate(cfg core.Config, model nn.Model) Result {
	mapping := cfg.MapModel(model)
	census := NewCensus(cfg)
	power := census.Power(cfg.Estimate).Total()
	lat := mapping.Latency()
	energy := power * lat
	return Result{
		Model:      model.Name,
		Design:     fmt.Sprintf("Albireo-%s (Ng=%d)", cfg.Estimate, cfg.Ng),
		Latency:    lat,
		Energy:     energy,
		EDP:        energy * lat,
		Power:      power,
		MACs:       model.TotalMACs(),
		Area:       census.Area().Total(),
		ActiveArea: census.ActiveArea(),
	}
}

// LayerResult is a per-layer line of the per-layer analysis
// (Section IV-A: "we perform a per-layer analysis to yield latency,
// energy, and EDP").
type LayerResult struct {
	Layer   nn.Layer
	Cycles  int64
	Latency float64
	Energy  float64
	MACs    int64
}

// EvaluateLayers returns the per-layer breakdown for a network.
func EvaluateLayers(cfg core.Config, model nn.Model) []LayerResult {
	census := NewCensus(cfg)
	power := census.Power(cfg.Estimate).Total()
	rate := cfg.ModulationRate()
	var out []LayerResult
	for _, l := range model.Layers {
		if !l.HasMACs() {
			continue
		}
		lm := cfg.MapLayer(l)
		lat := float64(lm.Cycles) / rate
		out = append(out, LayerResult{
			Layer:   l,
			Cycles:  lm.Cycles,
			Latency: lat,
			Energy:  power * lat,
			MACs:    l.MACs(),
		})
	}
	return out
}
