package perf

import (
	"fmt"

	"albireo/internal/core"
	"albireo/internal/memory"
	"albireo/internal/nn"
	"albireo/internal/units"
)

// Dataflow is the loop order of the traffic model, which sums SRAM
// bytes over the stages of each layer's Algorithm 2 schedule
// (core.Config.Stages), the schedule MapLayer prices. The model
// quantifies the claim of paper Section III-B: the PLCG's
// depth-first aggregation "creates no partial sum writes back to
// memory", which matters because "data movement can consume
// magnitudes more energy than computation".
//
// Two dataflows are modeled:
//
//   - DepthFirst (the paper's): for each output tile, all channel
//     groups are aggregated in the PLCG register before write-back.
//     Weights retarget every cycle (which the 5 GS/s DACs are specced
//     for); no partial-sum traffic exists.
//   - WeightStationary (the ablation): weights are held for a full
//     sweep of output tiles, so each tile's partial sum must round-trip
//     through the global buffer between channel groups.
type Dataflow int

const (
	// DepthFirst is the paper's schedule: channel groups inner,
	// partials aggregated in the PLCG register.
	DepthFirst Dataflow = iota
	// WeightStationary holds weights across output tiles and spills
	// partial sums to the global buffer.
	WeightStationary
)

// String names the dataflow.
func (d Dataflow) String() string {
	switch d {
	case DepthFirst:
		return "depth-first"
	case WeightStationary:
		return "weight-stationary"
	default:
		return "unknown"
	}
}

// Operand widths in bytes: 8-bit activations and weights, and 24-bit
// partial sums held between channel groups (wider than an operand).
const (
	activationBytes = 1
	weightBytes     = 1
	psumBytes       = 3
)

// LayerStats is the traffic of one layer.
type LayerStats struct {
	Layer nn.Layer
	// Cycles is the schedule length.
	Cycles int64
	// InputBytes counts global-buffer activation reads (one broadcast
	// stream feeds all PLCGs).
	InputBytes int64
	// WeightBytes counts kernel-cache reads across all PLCGs.
	WeightBytes int64
	// PsumReadBytes and PsumWriteBytes count partial-sum round-trips
	// through the global buffer (zero for DepthFirst).
	PsumReadBytes, PsumWriteBytes int64
	// OutputBytes counts finished-activation writes.
	OutputBytes int64
	// SRAMEnergy is the data-movement energy in joules.
	SRAMEnergy float64
}

// TotalTraffic returns all SRAM bytes moved.
func (s LayerStats) TotalTraffic() int64 {
	return s.InputBytes + s.WeightBytes + s.PsumReadBytes + s.PsumWriteBytes + s.OutputBytes
}

// SimulateLayer sums one layer's traffic over its schedule's stages
// under the given dataflow. Pooling layers return zeroed stats (they
// ride the digital path).
func SimulateLayer(cfg core.Config, df Dataflow, l nn.Layer) LayerStats {
	st := LayerStats{Layer: l}
	if !l.HasMACs() {
		return st
	}
	for _, s := range cfg.Stages(l) {
		steps := s.Rounds * s.Tiles * s.Groups * s.Runs
		// A step's weights: Nu*Nm per active PLCG.
		plcgs := min(int64(cfg.Ng), s.Kernels)
		weights := int64(cfg.Nu) * int64(cfg.Nm) * weightBytes * plcgs
		st.Cycles += steps
		// One broadcast serves every PLCG.
		st.InputBytes += steps * s.Inputs * activationBytes
		switch df {
		case DepthFirst:
			// Weights retarget every cycle from the kernel caches.
			// No partial-sum traffic: aggregation lives in the PLCG
			// register until the activation completes (Section III-B).
			st.WeightBytes += steps * weights
		case WeightStationary:
			// Weights fetched once per (round, group, run); held
			// across the tile sweep.
			st.WeightBytes += s.Rounds * s.Groups * s.Runs * weights
			// Every tile's Nd partials round-trip between channel
			// groups: written after each group, read back before the
			// next.
			spill := s.Rounds * s.Tiles * (s.Groups*s.Runs - 1) * int64(cfg.Nd) * psumBytes * plcgs
			st.PsumWriteBytes += spill
			st.PsumReadBytes += spill
		}
	}
	// Output writes: one byte per produced activation.
	st.OutputBytes = int64(l.OutZ) * int64(l.OutY()) * int64(l.OutX()) * activationBytes

	// Inputs, partial sums and outputs move through the global buffer;
	// weights come from the kernel caches.
	gb, kc := memory.GlobalBuffer(), memory.KernelCache()
	st.SRAMEnergy = gb.ReadEnergy(int(st.InputBytes)) +
		kc.ReadEnergy(int(st.WeightBytes)) +
		gb.ReadEnergy(int(st.PsumReadBytes)) +
		gb.WriteEnergy(int(st.PsumWriteBytes)) +
		gb.WriteEnergy(int(st.OutputBytes))
	return st
}

// ModelStats aggregates a whole network.
type ModelStats struct {
	Model  string
	Layers []LayerStats
	// Totals.
	Cycles     int64
	Traffic    int64
	SRAMEnergy float64
}

// SimulateModel sums the traffic of every compute layer under the
// given dataflow.
func SimulateModel(cfg core.Config, df Dataflow, m nn.Model) ModelStats {
	ms := ModelStats{Model: m.Name}
	for _, l := range m.Layers {
		if !l.HasMACs() {
			continue
		}
		st := SimulateLayer(cfg, df, l)
		ms.Layers = append(ms.Layers, st)
		ms.Cycles += st.Cycles
		ms.Traffic += st.TotalTraffic()
		ms.SRAMEnergy += st.SRAMEnergy
	}
	return ms
}

// String implements fmt.Stringer.
func (ms ModelStats) String() string {
	return fmt.Sprintf("%s: %d cycles, %.1f MB SRAM traffic, %.3f mJ data movement",
		ms.Model, ms.Cycles, float64(ms.Traffic)/units.Mega, ms.SRAMEnergy*units.Kilo)
}

// Compare runs both dataflows on a model and returns (depth-first,
// weight-stationary) stats - the Section III-B ablation.
func Compare(cfg core.Config, m nn.Model) (df, ws ModelStats) {
	return SimulateModel(cfg, DepthFirst, m), SimulateModel(cfg, WeightStationary, m)
}
