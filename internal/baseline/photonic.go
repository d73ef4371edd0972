// Package baseline implements the comparison points of the paper's
// evaluation: the photonic accelerators PIXEL and DEAP-CNN, rebuilt as
// analytic throughput/power models from their published device
// inventories and scaled to the 60 W budget with the same conservative
// device parameters as Albireo (Section IV-A), and the electronic
// accelerators Eyeriss, ENVISION, and UNPU, whose latency and energy
// the paper takes directly from their publications (Table IV).
package baseline

import (
	"fmt"

	"albireo/internal/device"
	"albireo/internal/nn"
	"albireo/internal/units"
)

// Result mirrors perf.Result for baseline accelerators.
type Result struct {
	Model   string
	Design  string
	Latency float64 // seconds
	Energy  float64 // joules
	EDP     float64 // joule-seconds
	Power   float64 // watts
	// Wavelengths is the WDM channel count the design actively uses
	// for computation, the denominator of the paper's WDM-efficiency
	// metric.
	Wavelengths int
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s on %s: %.3f ms, %.2f mJ", r.Model, r.Design, r.Latency*units.Kilo, r.Energy*units.Kilo)
}

// DEAPCNN models the DEAP-CNN accelerator (Bangari et al., the paper's
// reference [5]): MRR weight banks compute one receptive-field dot
// product per cycle over up to 9 kernel taps x 113 channels, with
// voltage addition across filter channels. At the 60 W budget with
// conservative devices, the published inventory (2034 DACs, 113 TIAs)
// amounts to a single such unit at 5 GHz - DACs alone draw ~53 W.
type DEAPCNN struct {
	// MaxChannels is the filter-channel capacity of a weight bank
	// (113). The paper optimistically assumes deeper kernels can be
	// folded over multiple passes.
	MaxChannels int
	// TapsPerBank is the kernel footprint a bank holds (3x3 = 9).
	TapsPerBank int
	// ClockHz is the modulation rate (5 GHz).
	ClockHz float64
	// KernelWavelengths is the WDM channel count of one weight bank,
	// used for the WDM-efficiency metric.
	KernelWavelengths int
}

// NewDEAPCNN returns the paper's 60 W DEAP-CNN configuration.
func NewDEAPCNN() DEAPCNN {
	return DEAPCNN{
		MaxChannels:       113,
		TapsPerBank:       9,
		ClockHz:           5 * units.Giga,
		KernelWavelengths: 9,
	}
}

// Power returns the configuration's power draw with conservative
// devices: 2034 DACs, 2034 MRRs (weights + input modulators), 113
// TIAs, one ADC.
func (d DEAPCNN) Power() float64 {
	p := device.Powers(device.Conservative)
	nDAC := 2 * d.TapsPerBank * d.MaxChannels // 2034
	nMRR := nDAC
	return float64(nDAC)*p.DAC + float64(nMRR)*p.MRR + float64(d.MaxChannels)*p.TIA + p.ADC
}

// BankCapacity returns the weight capacity of one bank:
// TapsPerBank * MaxChannels (1017).
func (d DEAPCNN) BankCapacity() int64 {
	return int64(d.TapsPerBank) * int64(d.MaxChannels)
}

// LayerCycles returns the cycles DEAP-CNN needs for one layer: one
// output activation per cycle per pass, with extra passes when a
// kernel exceeds the bank's weight capacity. Following the paper's
// "optimistic assumption in favor of DEAP-CNN" (Section IV-A), the
// bank folds arbitrary kernel shapes up to its 1017-weight capacity,
// and depthwise layers use the per-channel photodiode lanes to filter
// MaxChannels channels in parallel.
func (d DEAPCNN) LayerCycles(l nn.Layer) int64 {
	switch l.Kind {
	case nn.Conv, nn.Pointwise:
		outputs := int64(l.OutY()) * int64(l.OutX()) * int64(l.OutZ)
		depth := int64(l.InZ)
		if l.Groups > 1 {
			depth /= int64(l.Groups)
		}
		weights := int64(l.KY) * int64(l.KX) * depth
		return outputs * ceilDiv(weights, d.BankCapacity())
	case nn.Depthwise:
		pixels := int64(l.OutY()) * int64(l.OutX())
		return pixels * ceilDiv(int64(l.InZ), int64(d.MaxChannels))
	case nn.FC:
		n := int64(l.InZ) * int64(l.InY) * int64(l.InX)
		return int64(l.OutZ) * ceilDiv(n, d.BankCapacity())
	default:
		return 0
	}
}

// Evaluate runs a network through the DEAP-CNN model.
func (d DEAPCNN) Evaluate(m nn.Model) Result {
	var cycles int64
	for _, l := range m.Layers {
		cycles += d.LayerCycles(l)
	}
	lat := float64(cycles) / d.ClockHz
	pw := d.Power()
	return Result{
		Model:       m.Name,
		Design:      "DEAP-CNN (60 W)",
		Latency:     lat,
		Energy:      pw * lat,
		EDP:         pw * lat * lat,
		Power:       pw,
		Wavelengths: d.KernelWavelengths,
	}
}

// PIXEL models the PIXEL accelerator (Shiflett et al., the paper's
// reference [52]) in its 8-bit "OO" optical MAC configuration at
// 10 GHz: MRRs compute bitwise partial products and cascaded MZMs
// accumulate them, so each OMAC completes one 8-bit MAC per cycle but
// needs per-bit-lane converters (128 DACs at 10 GS/s, 64 product MRRs,
// 63 accumulation MZMs, 8 output lanes). The unit count is scaled to
// the 60 W budget.
type PIXEL struct {
	// ClockHz is the OMAC rate (10 GHz, Section IV-A).
	ClockHz float64
	// Bits is the operand precision (8).
	Bits int
	// PowerBudget caps the scaled design (60 W).
	PowerBudget float64
}

// NewPIXEL returns the paper's 60 W PIXEL configuration.
func NewPIXEL() PIXEL {
	return PIXEL{ClockHz: 10 * units.Giga, Bits: 8, PowerBudget: 60}
}

// UnitPower returns one OMAC's draw with conservative devices. DAC and
// ADC power scales linearly with sample rate, so the 10 GS/s lanes
// cost twice the Table I 5 GS/s figures.
func (p PIXEL) UnitPower() float64 {
	c := device.Powers(device.Conservative)
	rate := p.ClockHz / c.SampleRate      // 2x
	nLanes := p.Bits * p.Bits             // 64 bit-product lanes
	return float64(2*nLanes)*c.DAC*rate + // weight + input DACs
		float64(nLanes)*c.MRR +
		float64(nLanes-1)*c.MZM +
		float64(p.Bits)*c.ADC*rate +
		float64(p.Bits)*c.TIA
}

// Units returns how many OMACs fit the budget.
func (p PIXEL) Units() int {
	u := int(p.PowerBudget / p.UnitPower())
	if u < 1 {
		u = 1
	}
	return u
}

// Power returns the scaled design's power.
func (p PIXEL) Power() float64 {
	return float64(p.Units()) * p.UnitPower()
}

// Evaluate runs a network through the PIXEL model: total MACs spread
// over Units() OMACs at one MAC per cycle.
func (p PIXEL) Evaluate(m nn.Model) Result {
	macs := m.TotalMACs()
	cycles := ceilDiv(macs, int64(p.Units()))
	lat := float64(cycles) / p.ClockHz
	pw := p.Power()
	return Result{
		Model:       m.Name,
		Design:      "PIXEL (60 W)",
		Latency:     lat,
		Energy:      pw * lat,
		EDP:         pw * lat * lat,
		Power:       pw,
		Wavelengths: p.Bits,
	}
}

func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}
