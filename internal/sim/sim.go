// Package sim is a cycle-resolved dataflow simulator for the Albireo
// chip. It walks the Algorithm 2 loop nest schedule step by step,
// counting cycles and SRAM traffic, and quantifies the claim of paper
// Section III-B: the PLCG's depth-first aggregation "creates no
// partial sum writes back to memory", which matters because "data
// movement can consume magnitudes more energy than computation".
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
//
// The simulator's cycle count is validated against the analytic
// mapping model (core.Config.MapLayer) in the tests: with the paper's
// schedule they agree exactly.
package sim

import (
	"fmt"

	"albireo/internal/core"
	"albireo/internal/memory"
	"albireo/internal/nn"
	"albireo/internal/units"
)

// Dataflow selects the loop order.
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

// LayerStats is the simulation result for one layer.
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

// SimulateLayer walks one layer's schedule under the given dataflow.
// Pooling layers return zeroed stats (they ride the digital path).
func SimulateLayer(cfg core.Config, df Dataflow, l nn.Layer) LayerStats {
	st := LayerStats{Layer: l}
	if !l.HasMACs() {
		return st
	}
	m := cfg.MapLayer(l)

	// Active PLCGs this layer: kernel passes spread OutZ over Ng; the
	// last pass may not fill every group.
	groupsActive := int64(cfg.Ng)
	if int64(l.OutZ) < groupsActive {
		groupsActive = int64(l.OutZ)
	}

	// Per-cycle operand footprints.
	inputPerCycle := int64(cfg.Nu) * int64(cfg.WavelengthsPerPLCU()) * activationBytes
	if l.Kind == nn.FC || l.Kind == nn.Pointwise {
		// These mappings stream Nu*Nm fresh elements per cycle per
		// slot (no receptive-field overlap).
		inputPerCycle = int64(cfg.Nu) * int64(cfg.Nm) * activationBytes
		if l.Kind == nn.Pointwise {
			inputPerCycle *= int64(cfg.Nd)
		}
	}
	weightsPerCycle := int64(cfg.Nu) * int64(cfg.Nm) * weightBytes * groupsActive

	st.Cycles = m.Cycles

	// Output writes: one byte per produced activation.
	outputs := int64(l.OutZ) * int64(l.OutY()) * int64(l.OutX())
	if l.Kind == nn.FC {
		outputs = int64(l.OutZ)
	}
	st.OutputBytes = outputs * activationBytes

	// Input stream: one broadcast serves every PLCG, re-streamed for
	// each kernel pass and tap chunk.
	st.InputBytes = m.KernelPasses * m.ColumnTiles * m.ChannelGroups * m.TapChunks * inputPerCycle

	switch df {
	case DepthFirst:
		// Weights retarget every cycle from the kernel caches.
		st.WeightBytes = m.Cycles * weightsPerCycle
		// No partial-sum traffic: aggregation lives in the PLCG
		// register until the activation completes (Section III-B).
	case WeightStationary:
		// Weights fetched once per (pass, group, chunk); held across
		// the tile sweep.
		st.WeightBytes = m.KernelPasses * m.ChannelGroups * m.TapChunks * weightsPerCycle
		// Every tile's Nd partials round-trip between channel groups:
		// written after each group, read back before the next.
		steps := m.ChannelGroups*m.TapChunks - 1
		if steps < 0 {
			steps = 0
		}
		perTile := int64(cfg.Nd) * psumBytes * groupsActive
		st.PsumWriteBytes = m.KernelPasses * m.ColumnTiles * steps * perTile
		st.PsumReadBytes = st.PsumWriteBytes
	}

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

// SimulateModel runs every compute layer under the given dataflow.
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
