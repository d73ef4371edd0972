package core

import (
	"fmt"

	"albireo/internal/photonics"
)

// PLCG is the functional model of one photonic locally-connected group
// (paper Figure 6b): Nu PLCUs processing Nu consecutive input channels
// in parallel, an analog reduction that sums corresponding photodiode
// currents across the PLCUs, and an aggregation unit (TIA -> ADC ->
// digital adder) that accumulates partials depth-first over
// ceil(Wz/Nu) cycles before applying the activation (Section III-B).
//
// A PLCG degrades gracefully: quarantined PLCUs are removed from the
// slot mapping, so each step schedules work onto the remaining healthy
// units only (fewer slots per cycle, more cycles per layer).
type PLCG struct {
	cfg   Config
	units []*PLCU
	adc   photonics.ADC
	// fullScaleCurrent is the ADC input full scale: all Nu*Nm products
	// at full amplitude on one polarity.
	fullScaleCurrent float64
	// avail lists the healthy (non-quarantined) unit indices in
	// ascending order; step slot i drives units[avail[i]].
	avail []int
	// sumBuf and curBuf are the group's reduction scratch: the analog
	// cross-unit sum and the per-unit currents stepPrequantized reuses
	// across cycles instead of allocating per call.
	sumBuf, curBuf []float64
	// conv is the group-owned scratch arena the chip's per-kernel
	// bodies (conv, depthwise, pointwise, FC, GEMM) stage slot
	// weights and activations in. Group-owned so the kernel lanes'
	// one-lane-per-PLCG partitioning keeps it race-free.
	conv convScratch
}

// NewPLCG builds a functional PLCG. Each PLCU gets a distinct noise
// stream derived from cfg.Seed.
func NewPLCG(cfg Config) *PLCG {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid config: %v", err)) //lint:ignore exit-hygiene constructor refuses a config Validate already rejected; caller bug
	}
	units := make([]*PLCU, cfg.Nu)
	avail := make([]int, cfg.Nu)
	for u := range units {
		ucfg := cfg
		ucfg.Seed = cfg.Seed*1000003 + int64(u)
		units[u] = NewPLCU(ucfg)
		avail[u] = u
	}
	return &PLCG{
		cfg:              cfg,
		units:            units,
		adc:              photonics.ADC{Bits: cfg.ADCBits, SampleRate: cfg.ModulationRate()},
		fullScaleCurrent: float64(cfg.Nu*cfg.Nm) * units[0].UnitCurrent(),
		avail:            avail,
		sumBuf:           make([]float64, cfg.Nd),
		curBuf:           make([]float64, cfg.Nd),
		conv:             newConvScratch(cfg),
	}
}

// Units exposes the PLCUs (read-only use).
func (g *PLCG) Units() []*PLCU { return g.units }

// Capacity returns the number of healthy (schedulable) PLCUs. It is
// Nu until units are quarantined.
func (g *PLCG) Capacity() int { return len(g.avail) }

// quarantine removes unit u from the slot mapping. Reports whether
// the unit was schedulable before the call.
func (g *PLCG) quarantine(u int) bool {
	for i, a := range g.avail {
		if a == u {
			g.avail = append(g.avail[:i:i], g.avail[i+1:]...)
			return true
		}
	}
	return false
}

// restoreAll puts every unit back into the slot mapping.
func (g *PLCG) restoreAll() {
	g.avail = g.avail[:0]
	for u := range g.units {
		g.avail = append(g.avail, u)
	}
}

// stepPrequantized performs one cycle on compiled weight-program
// slots and folded activation sets: healthy PLCU slot i drives qw[i]
// against the flat set qa[i] (see PLCU.currentsPrequantized), the
// per-column currents are summed across units in the analog domain,
// digitized by the shared ADC, and written to dst in the value domain
// (units of full-scale products). Fewer than Capacity slots are
// allowed for tail channel groups; missing units idle, and quarantined
// units are never driven. Only the first live columns are summed,
// digitized and returned; every unit still draws all Nd noise samples,
// so the live columns are bit-identical to a full-width cycle.
//
// hot: weight-stationary group inner loop; must not allocate.
func (g *PLCG) stepPrequantized(dst []float64, qw, qa [][]float64, live int) []float64 {
	if len(qw) > len(g.avail) || len(qw) != len(qa) {
		panic(fmt.Sprintf("core: step wants <=%d matched channel slots, got %d/%d", //lint:ignore exit-hygiene slot-count shape invariant; caller bug
			len(g.avail), len(qw), len(qa)))
	}
	sum := g.sumBuf[:live]
	for d := range sum {
		sum[d] = 0
	}
	for i := range qw {
		cur := g.units[g.avail[i]].currentsPrequantized(g.curBuf, qw[i], qa[i], live)
		for d := range sum {
			sum[d] += cur[d]
		}
	}
	return g.aggregate(dst[:live], sum, len(qw))
}

// aggregate applies the TIA + shared-ADC stage to the analog sum of
// nslots active units and writes the value-domain result into dst.
//
// hot: shared aggregation tail; must not allocate.
func (g *PLCG) aggregate(dst, sum []float64, nslots int) []float64 {
	unit := g.units[0].UnitCurrent()
	// The TIA gain is programmed per layer so the ADC full scale
	// matches the active PLCU population: a depthwise layer driving a
	// single PLCU digitizes against a 3x smaller range than a dense
	// layer driving all Nu units.
	fs := float64(nslots*g.cfg.Nm) * unit
	if fs <= 0 {
		fs = g.fullScaleCurrent
	}
	for d, c := range sum {
		dst[d] = g.adc.Quantize(c, fs) / unit
	}
	return dst
}
