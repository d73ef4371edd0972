package sim

import (
	"fmt"

	"albireo/internal/core"
	"albireo/internal/memory"
	"albireo/internal/nn"
)

// Feasibility checks whether a layer's working set and streaming rates
// fit Albireo's memory subsystems: the 16 kB per-PLCG kernel cache and
// the global buffer's bandwidth at the modulation rate. The paper
// sizes these subsystems (Section IV-A) but does not publish the fit
// analysis; this is the deployment-reality check a user of the
// architecture needs.
type Feasibility struct {
	Layer nn.Layer
	// KernelBytes is the largest single-kernel working set a PLCG must
	// hold (one kernel per PLCG at a time).
	KernelBytes int64
	// KernelCacheFits reports whether it fits the 16 kB cache.
	KernelCacheFits bool
	// InputBandwidth is the sustained global-buffer read rate in
	// bytes/second the broadcast stream requires.
	InputBandwidth float64
	// WeightBandwidth is the per-PLCG kernel-cache read rate.
	WeightBandwidth float64
	// InputBandwidthOK / WeightBandwidthOK compare against the SRAM
	// models' word-rate limits.
	InputBandwidthOK, WeightBandwidthOK bool
	// ActivationBytes is the layer's input volume footprint, checked
	// against the 256 kB global buffer (spilling to off-chip DRAM
	// otherwise).
	ActivationBytes  int64
	GlobalBufferFits bool
}

// CheckLayer runs the feasibility analysis for one layer.
func CheckLayer(cfg core.Config, l nn.Layer) Feasibility {
	f := Feasibility{Layer: l}
	if !l.HasMACs() {
		f.KernelCacheFits = true
		f.InputBandwidthOK = true
		f.WeightBandwidthOK = true
		f.GlobalBufferFits = true
		return f
	}
	rate := cfg.ModulationRate()
	gb := memory.GlobalBuffer()
	kc := memory.KernelCache()

	// One kernel's weights (8-bit) per PLCG.
	switch l.Kind {
	case nn.Depthwise:
		f.KernelBytes = int64(l.KY) * int64(l.KX) * int64(cfg.Nu)
	case nn.FC:
		f.KernelBytes = int64(l.InZ) * int64(l.InY) * int64(l.InX)
	default:
		depth := int64(l.InZ)
		if l.Groups > 1 {
			depth /= int64(l.Groups)
		}
		f.KernelBytes = int64(l.KY) * int64(l.KX) * depth
	}
	f.KernelCacheFits = f.KernelBytes <= int64(kc.CapacityBytes)

	// Streaming rates: the per-cycle operand footprints of the
	// dataflow simulator at the modulation rate.
	st := SimulateLayer(cfg, DepthFirst, l)
	if st.Cycles > 0 {
		cycleTime := 1 / rate
		f.InputBandwidth = float64(st.InputBytes) / (float64(st.Cycles) * cycleTime)
		f.WeightBandwidth = float64(st.WeightBytes) / float64(cfg.Ng) / (float64(st.Cycles) * cycleTime)
	}
	// A wide SRAM port sustains word-width bytes per cycle at the
	// converter clock.
	f.InputBandwidthOK = f.InputBandwidth <= gb.Bandwidth(rate)*8 // 8 banks
	f.WeightBandwidthOK = f.WeightBandwidth <= kc.Bandwidth(rate)*8

	f.ActivationBytes = int64(l.InZ) * int64(l.InY) * int64(l.InX)
	f.GlobalBufferFits = f.ActivationBytes <= int64(gb.CapacityBytes)
	return f
}

// ModelFeasibility aggregates the per-layer checks.
type ModelFeasibility struct {
	Model  string
	Layers []Feasibility
	// CacheMisfits counts layers whose kernel exceeds the cache (they
	// stream weights from the global buffer instead).
	CacheMisfits int
	// BufferMisfits counts layers whose activations exceed the global
	// buffer (they tile through off-chip memory).
	BufferMisfits int
}

// CheckModel runs the analysis over a network's compute layers.
func CheckModel(cfg core.Config, m nn.Model) ModelFeasibility {
	mf := ModelFeasibility{Model: m.Name}
	for _, l := range m.Layers {
		if !l.HasMACs() {
			continue
		}
		f := CheckLayer(cfg, l)
		mf.Layers = append(mf.Layers, f)
		if !f.KernelCacheFits {
			mf.CacheMisfits++
		}
		if !f.GlobalBufferFits {
			mf.BufferMisfits++
		}
	}
	return mf
}

// String implements fmt.Stringer.
func (mf ModelFeasibility) String() string {
	return fmt.Sprintf("%s: %d layers, %d kernel-cache misfits, %d buffer misfits",
		mf.Model, len(mf.Layers), mf.CacheMisfits, mf.BufferMisfits)
}
