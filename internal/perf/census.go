// Package perf does the accounting of the Albireo evaluation (paper
// Section IV): device census, chip power breakdown (Table III), area
// breakdown (Figure 9), and per-model latency/energy/EDP/throughput
// reporting (Table IV and Figure 8), and the memory side of the
// schedule: SRAM traffic per dataflow, memory-system feasibility and
// off-chip tiling.
package perf

import (
	"albireo/internal/core"
	"albireo/internal/device"
	"albireo/internal/memory"
)

// Census counts every device on an Albireo chip for a given
// configuration. The counts reproduce the paper's figures for the
// 9-PLCG design: 2430 switching MRRs, 306 modulators (243 weight MZMs
// + 63 signal-generation modulators, hence "306 DACs"), 63 lasers, 45
// TIAs, and 45 ADCs (Section V and Table III; see DESIGN.md for the
// calibration).
type Census struct {
	Config core.Config

	SwitchingMRRs int // 2 * Nm * Nd per PLCU
	WeightMZMs    int // Nm per PLCU
	SignalGenMods int // one per distribution wavelength
	Lasers        int // one per distribution wavelength
	Photodiodes   int // 2 * Nd per PLCU (balanced pairs)
	TIAs          int // Nd per PLCG
	ADCs          int // Nd per PLCG
	DACs          int // weight MZMs + signal-generation modulators
	StarCouplers  int // KernelH per PLCU
	AWGs          int // one per PLCG
	YBranches     int // broadcast tree internal nodes
	KernelCaches  int // one per PLCG
	GlobalBuffers int
}

// NewCensus counts the devices of the configuration.
func NewCensus(cfg core.Config) Census {
	plcus := cfg.Nu * cfg.Ng
	return Census{
		Config:        cfg,
		SwitchingMRRs: 2 * cfg.Nm * cfg.Nd * plcus,
		WeightMZMs:    cfg.Nm * plcus,
		SignalGenMods: cfg.TotalWavelengths(),
		Lasers:        cfg.TotalWavelengths(),
		Photodiodes:   2 * cfg.Nd * plcus,
		TIAs:          cfg.Nd * cfg.Ng,
		ADCs:          cfg.Nd * cfg.Ng,
		DACs:          cfg.Nm*plcus + cfg.TotalWavelengths(),
		StarCouplers:  cfg.KernelH * plcus,
		AWGs:          cfg.Ng,
		YBranches:     maxInt(cfg.Ng-1, 0),
		KernelCaches:  cfg.Ng,
		GlobalBuffers: 1,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PowerBreakdown is one column of Table III: per-device-class power in
// watts.
type PowerBreakdown struct {
	Estimate device.Estimate
	MRR      float64 // switching MRR fabric
	MZM      float64 // weight MZMs + signal-generation modulators
	Laser    float64
	TIA      float64
	DAC      float64
	ADC      float64
	Cache    float64
}

// Total returns the chip power in watts.
func (p PowerBreakdown) Total() float64 {
	return p.MRR + p.MZM + p.Laser + p.TIA + p.DAC + p.ADC + p.Cache
}

// Power computes the Table III column for the census under the given
// device estimate. The paper prices the signal-generation modulators
// at the MZM rate (the Table III MZI row equals 306 devices; see
// DESIGN.md).
func (c Census) Power(e device.Estimate) PowerBreakdown {
	p := device.Powers(e)
	return PowerBreakdown{
		Estimate: e,
		MRR:      float64(c.SwitchingMRRs) * p.MRR,
		MZM:      float64(c.WeightMZMs+c.SignalGenMods) * p.MZM,
		Laser:    float64(c.Lasers) * p.Laser,
		TIA:      float64(c.TIAs) * p.TIA,
		DAC:      float64(c.DACs) * p.DAC,
		ADC:      float64(c.ADCs) * p.ADC,
		Cache:    device.Memory().CachePower,
	}
}

// AreaBreakdown is the Figure 9 area census in m^2 by component class.
type AreaBreakdown struct {
	AWG         float64
	StarCoupler float64
	MZM         float64
	MRR         float64
	Laser       float64
	Photodiode  float64
	YBranch     float64
	SRAM        float64
}

// Total returns the chip area in m^2.
func (a AreaBreakdown) Total() float64 {
	return a.AWG + a.StarCoupler + a.MZM + a.MRR + a.Laser + a.Photodiode + a.YBranch + a.SRAM
}

// Area computes the Figure 9 breakdown for the census using the Table
// II device footprints.
func (c Census) Area() AreaBreakdown {
	o := device.Optics()
	return AreaBreakdown{
		AWG:         float64(c.AWGs) * o.AWGArea,
		StarCoupler: float64(c.StarCouplers) * o.StarArea,
		MZM:         float64(c.WeightMZMs+c.SignalGenMods) * o.MZMArea,
		MRR:         float64(c.SwitchingMRRs+c.SignalGenMods) * o.RingArea,
		Laser:       float64(c.Lasers) * o.LaserArea,
		Photodiode:  float64(c.Photodiodes) * o.PDArea,
		YBranch:     float64(c.YBranches) * o.YBranchArea,
		SRAM: float64(c.GlobalBuffers)*memory.GlobalBuffer().Area +
			float64(c.KernelCaches)*memory.KernelCache().Area,
	}
}

// ActiveArea returns the chip area excluding the passive distribution
// devices (AWGs and star couplers), the paper's "active area only"
// normalization in Table IV.
func (c Census) ActiveArea() float64 {
	a := c.Area()
	return a.Total() - a.AWG - a.StarCoupler
}
