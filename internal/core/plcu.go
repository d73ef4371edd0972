package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"albireo/internal/circuit"
	"albireo/internal/noise"
	"albireo/internal/photonics"
	"albireo/internal/quant"
)

// PLCU is the functional model of one photonic locally-connected unit
// (paper Figure 5): Nm weight MZMs fed by star-coupler multicast, a
// 2*Nm*Nd grid of switching MRRs, and Nd balanced photodiode columns.
// In one cycle it computes Nd concurrent dot products between one
// kernel channel and Nd overlapping receptive fields.
//
// The simulation carries values through the physical chain:
//
//  1. weights and activations are quantized by the 8-bit DACs,
//  2. each MZM scales all of its wavelengths by |w| (Eq. 2),
//  3. each switching MRR drops its wavelength onto the positive or
//     negative accumulation waveguide according to sign(w), coupling in
//     leakage from the other wavelengths sharing its bus per the
//     crosstalk matrix of the 21-channel grid,
//  4. the balanced PD subtracts the two accumulated powers (Eq. 4) and
//     RIN/shot/thermal noise perturbs the output current.
type PLCU struct {
	cfg Config
	// unitCurrent is the photocurrent of one full-scale product
	// (weight 1 x activation 1) after the complete optical path.
	unitCurrent float64
	// coef is the shared crosstalk table of the unit's geometry (see
	// crosstalkTable); nil when crosstalk is disabled.
	coef []float64
	// sigma is the standard deviation of the detector noise current,
	// constant for the unit's operating point.
	sigma  float64
	wq, aq quant.Quantizer
	rng    *rand.Rand
	// faults holds injected hardware defects (see faults.go).
	faults []Fault
	// gains is the static ring-gain table built from faults, indexed
	// [tap*Nd+column]; nil when no ring is faulted. Rings with a
	// drifting fault hold driftingRing and are evaluated per cycle.
	gains []float64
	// faultEpoch advances on every InjectFault/ClearFaults so the
	// chip's weight-program cache can detect that previously compiled
	// fault-effective weights are stale.
	faultEpoch int64
	// cycles counts the unit's elapsed modulation cycles, which
	// progressive (drifting) faults key off.
	cycles int64
	// qwBuf and qaBuf are the unit's scratch arena: the quantized
	// weight vector and the flat [tap*Nd+column] activation set
	// CurrentsInto reuses across cycles instead of allocating per call.
	qwBuf, qaBuf []float64
	// pos and neg are accumulate's per-column positive and negative
	// waveguide sums.
	pos, neg []float64
}

// xtalkKey is the geometry a crosstalk table depends on.
type xtalkKey struct {
	k2                       float64
	nm, nd, kernelH, kernelW int
}

// xtalkTables memoizes crosstalkTable, a pure function of the key.
// Entries are never written after insertion, so sharing them across
// chips cannot couple one chip's results to another's.
var (
	xtalkMu     sync.Mutex
	xtalkTables = map[xtalkKey][]float64{}
)

// crosstalkTable returns the crosstalk coefficients of cfg's geometry
// as one flat table: coef[(t*Nd+d)*Nd+dp] is the fractional leakage of
// column dp's wavelength into the ring of column d on tap t's bus (zero
// on the diagonal, which accumulate skips). The table is immutable and
// memoized per geometry, so every PLCU of that geometry shares one
// backing array.
func crosstalkTable(cfg Config) []float64 {
	key := xtalkKey{cfg.K2, cfg.Nm, cfg.Nd, cfg.KernelH, cfg.KernelW}
	xtalkMu.Lock()
	defer xtalkMu.Unlock()
	if coef, ok := xtalkTables[key]; ok {
		return coef
	}
	xt := circuit.NewCrosstalkAnalysis(cfg.K2, cfg.WavelengthsPerPLCU()).CrosstalkMatrix()
	nd := cfg.Nd
	coef := make([]float64, cfg.Nm*nd*nd)
	for t := 0; t < cfg.Nm; t++ {
		for d := 0; d < nd; d++ {
			own := cfg.gridChannel(t, d)
			for dp := 0; dp < nd; dp++ {
				if dp != d {
					coef[(t*nd+d)*nd+dp] = xt[own][cfg.gridChannel(t, dp)]
				}
			}
		}
	}
	xtalkTables[key] = coef
	return coef
}

// NewPLCU builds a functional PLCU for the given configuration. The
// configuration must validate.
func NewPLCU(cfg Config) *PLCU {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid config: %v", err)) //lint:ignore exit-hygiene constructor refuses a config Validate already rejected; caller bug
	}
	delivered := cfg.SignalPath().Deliver(cfg.LaserPower)
	pd := photonics.NewPhotodiode()
	unitCurrent := pd.Responsivity * delivered

	var coef []float64
	if !cfg.DisableCrosstalk {
		coef = crosstalkTable(cfg)
	}

	np := noise.DefaultParams()
	np.Bandwidth = cfg.ModulationRate()

	return &PLCU{
		cfg:         cfg,
		unitCurrent: unitCurrent,
		coef:        coef,
		sigma:       np.TotalSigma(unitCurrent, cfg.Nm),
		wq:          quant.NewWeight(cfg.DACBits, 1),
		aq:          quant.NewActivation(cfg.DACBits, 1),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		qwBuf:       make([]float64, cfg.Nm),
		qaBuf:       make([]float64, cfg.Nm*cfg.Nd),
		pos:         make([]float64, cfg.Nd),
		neg:         make([]float64, cfg.Nd),
	}
}

// UnitCurrent returns the photocurrent of a full-scale product, the
// calibration constant relating current to value domain.
func (p *PLCU) UnitCurrent() float64 { return p.unitCurrent }

// Cycles returns the unit's elapsed modulation cycles. Progressive
// faults worsen as this advances.
func (p *PLCU) Cycles() int64 { return p.cycles }

// QuantizeWeight exposes the unit's DAC weight quantization: the
// closed-form healthy response to a probe weight is its quantized
// value, which the internal/health BIST engine compares observations
// against.
func (p *PLCU) QuantizeWeight(w float64) float64 { return p.quantizeWeight(w) }

// quantizeWeight snaps a weight in [-1, 1] onto the DAC grid. The
// default grid is uniform in value (a pre-distorted controller); with
// Config.VoltageDomainWeights the grid is uniform in MZM drive voltage
// and the Eq. 2 raised-cosine transfer warps it.
func (p *PLCU) quantizeWeight(w float64) float64 {
	if !p.cfg.VoltageDomainWeights {
		return p.wq.Quantize(w)
	}
	mag := math.Abs(w)
	if mag > 1 {
		mag = 1
	}
	// Voltage fraction for this magnitude: v/Vpi = dphi/pi.
	m := photonics.MZM{}
	frac := m.PhaseForWeight(mag) / math.Pi
	steps := float64(int(1)<<uint(p.cfg.DACBits-1) - 1)
	frac = math.Round(frac*steps) / steps
	qmag := m.Transfer(frac * math.Pi)
	if w < 0 {
		return -qmag
	}
	return qmag
}

// CurrentsInto computes the Nd differential output currents of one
// cycle into dst (which must have length Nd) and returns it,
// allocating nothing.
//
// weights has length Nm: the kernel channel in row-major order,
// normalized to [-1, 1]. avals is indexed [tap][column]: avals[t][d]
// is the activation (in [0, 1]) that output column d multiplies with
// weight t. For the native 3x3 stride-1 mapping, avals[t][d] =
// field[t/Wx][t%Wx + d], the overlapping receptive fields of Figure 5. The quantized weight vector and
// activation matrix live in the unit's scratch arena, so CurrentsInto
// is not safe for concurrent use on one PLCU - which mirrors the
// hardware: a unit executes one modulation cycle at a time.
//
// hot: steady-state per-cycle entry point; must not allocate.
func (p *PLCU) CurrentsInto(dst, weights []float64, avals [][]float64) []float64 {
	cfg := p.cfg
	p.cycles++
	if len(weights) != cfg.Nm {
		panic(fmt.Sprintf("core: want %d weights, got %d", cfg.Nm, len(weights))) //lint:ignore exit-hygiene weight-count shape invariant; caller bug
	}
	if len(avals) != cfg.Nm {
		panic(fmt.Sprintf("core: want %d activation rows, got %d", cfg.Nm, len(avals))) //lint:ignore exit-hygiene activation-row shape invariant; caller bug
	}

	// DAC quantization at the electrical/optical boundary, then any
	// stuck-modulator faults.
	for t, w := range weights {
		p.qwBuf[t] = p.effectiveWeight(t, p.quantizeWeight(w))
	}
	for t := range avals {
		if len(avals[t]) != cfg.Nd {
			panic(fmt.Sprintf("core: tap %d wants %d activations, got %d", t, cfg.Nd, len(avals[t]))) //lint:ignore exit-hygiene per-tap activation shape invariant; caller bug
		}
		row := p.qaBuf[t*cfg.Nd : (t+1)*cfg.Nd]
		for d, a := range avals[t] {
			row[d] = p.aq.Quantize(a)
		}
	}
	return p.accumulate(dst, p.qwBuf, p.qaBuf, cfg.Nd, p.coef)
}

// currentsPrequantized runs one cycle on weights and activations that
// are already on the DAC grids: qw holds fault-effective quantized
// weights (a compiled weight-program slot) and qa is a folded set of
// the chip's row plan, Nm rows of Nd activations back to back with
// each ring's crosstalk already folded in (see foldRow). Only the
// first live columns' currents are written (see accumulate). It
// advances the same cycle counter and draws the same noise samples as
// CurrentsInto.
//
// hot: weight-stationary inner loop; must not allocate.
func (p *PLCU) currentsPrequantized(dst, qw, qa []float64, live int) []float64 {
	p.cycles++
	return p.accumulate(dst, qw, qa, live, nil)
}

// accumulate is the shared analog datapath: MZM scaling, MRR routing
// with crosstalk and ring faults, balanced detection, and noise. qw
// must already be quantized and fault-adjusted; qa holds Nm quantized
// activation rows of Nd columns back to back.
//
// coef is the crosstalk table to apply to qa's rows. The quantize-on-
// entry path (CurrentsInto, the BIST probes) passes the unit's own table
// and raw rows; the chip passes nil and rows whose crosstalk its row
// plan already folded in. Each tap's MZM scales every wavelength on
// its bus by the same |w| (Eq. 2), so a ring's leakage is |w| times a
// fixed mix of that tap's activations, which depends on the input
// alone (see DESIGN.md §11, Crosstalk at the broadcast).
//
// Each column sees the per-column operation order of the physical
// model: taps ascending into its positive or negative sum, the ring's
// own signal first, then (with a table) the leakage from the other
// columns in ascending order, then the ring gain. With no table and no
// faulted ring, healthyCurrents runs that order in registers. Noise is
// drawn once per column in column order after all taps.
//
// Only columns d < live are computed and written to dst; the caller
// discards the rest. A dead column still draws its noise sample, so
// the unit's noise stream advances exactly as at full width, and its
// activations still leak into the live columns. Activations,
// magnitudes, crosstalk coefficients and ring gains are non-negative
// and finite (InjectFault rejects NaN parameters), so an all-zero row
// adds only ±0 terms to sums that start at +0 and changes no bit; a
// NaN weight code still poisons the sums.
//
// hot: innermost per-column loop; must not allocate.
func (p *PLCU) accumulate(dst, qw, qa []float64, live int, coef []float64) []float64 {
	nd := p.cfg.Nd
	out := dst[:live]
	if coef == nil && p.gains == nil {
		healthyCurrents(out, qw, qa, nd, p.unitCurrent)
	} else {
		p.impairedCurrents(out, qw, qa, coef)
	}
	if !p.cfg.DisableNoise {
		for d := range out {
			out[d] += float64(p.rng.NormFloat64() * p.sigma)
		}
		for d := live; d < nd; d++ {
			p.rng.NormFloat64()
		}
	}
	return dst
}

// healthyCurrents is the chip's healthy datapath, accumulate with no
// crosstalk table and no faulted ring: dst[d] = (pos-neg)·I_unit for
// the len(dst) live columns of the flat set qa (rows of nd columns).
// It is a call-free leaf, so a block of up to six columns keeps its
// twelve waveguide sums in registers across the taps (Nd = 5 is one
// block). Each column's positive and negative sums receive their taps
// in ascending order, the order of accumulate's general loop, so every
// bit matches it (TestAccumulateFastPathMatchesGeneralLoop): a ±0 code
// is skipped, so its activations are never read, and a NaN code goes
// to the negative sum.
//
// hot: the chip's innermost loop; must not allocate.
func healthyCurrents(dst, qw, qa []float64, nd int, unit float64) {
	for d := 0; d < len(dst); d += 6 {
		n := min(6, len(dst)-d)
		var p0, p1, p2, p3, p4, p5 float64
		var n0, n1, n2, n3, n4, n5 float64
		off := d - nd
		for _, w := range qw {
			off += nd
			if w == 0 {
				continue
			}
			mag := math.Abs(w)
			r := qa[off : off+n]
			if w > 0 {
				p0 += float64(mag * r[0])
				if n > 1 {
					p1 += float64(mag * r[1])
				}
				if n > 2 {
					p2 += float64(mag * r[2])
				}
				if n > 3 {
					p3 += float64(mag * r[3])
				}
				if n > 4 {
					p4 += float64(mag * r[4])
				}
				if n > 5 {
					p5 += float64(mag * r[5])
				}
			} else {
				n0 += float64(mag * r[0])
				if n > 1 {
					n1 += float64(mag * r[1])
				}
				if n > 2 {
					n2 += float64(mag * r[2])
				}
				if n > 3 {
					n3 += float64(mag * r[3])
				}
				if n > 4 {
					n4 += float64(mag * r[4])
				}
				if n > 5 {
					n5 += float64(mag * r[5])
				}
			}
		}
		diff := [6]float64{p0 - n0, p1 - n1, p2 - n2, p3 - n3, p4 - n4, p5 - n5}
		for i, v := range diff[:n] {
			dst[d+i] = v * unit
		}
	}
}

// impairedCurrents is accumulate's general loop, for a crosstalk table
// or a faulted ring: dst[d] = (pos-neg)·I_unit for the len(dst) live
// columns. Taps run on the outside so the columns' accumulations are
// independent; each column still sees the physical order.
//
// hot: general per-column loop; must not allocate.
func (p *PLCU) impairedCurrents(dst, qw, qa, coef []float64) {
	nd, gains := p.cfg.Nd, p.gains
	pos, neg := p.pos[:len(dst)], p.neg[:len(dst)]
	for d := range pos {
		pos[d] = 0
		neg[d] = 0
	}
	for t, w := range qw {
		if w == 0 {
			continue
		}
		mag := math.Abs(w)
		row := qa[t*nd:][:nd]
		sum := neg
		if w > 0 {
			sum = pos
		}
		for d := range sum {
			// Intended signal: the ring for (t, d) drops its own
			// wavelength carrying |w| * a.
			sig := float64(mag * row[d])
			// Crosstalk: the same ring couples a fraction of the other
			// columns' wavelengths riding tap t's bus.
			if coef != nil {
				c := coef[(t*nd+d)*nd : (t*nd+d+1)*nd]
				for dp := 0; dp < d; dp++ {
					sig += float64(c[dp] * mag * row[dp])
				}
				for dp := d + 1; dp < nd; dp++ {
					sig += float64(c[dp] * mag * row[dp])
				}
			}
			// Switching-ring faults attenuate whatever this ring
			// couples (signal and leakage alike).
			if gains != nil {
				g := gains[t*nd+d]
				if g < 0 {
					g = p.ringGain(t, d)
				}
				sig *= g
			}
			sum[d] += sig
		}
	}
	for d := range dst {
		dst[d] = (pos[d] - neg[d]) * p.unitCurrent
	}
}

// DotInto computes the Nd dot products in the value domain (no ADC):
// the differential currents divided by the unit current, into dst of
// length Nd. Like CurrentsInto it allocates nothing and is not safe
// for concurrent use on one PLCU.
func (p *PLCU) DotInto(dst, weights []float64, avals [][]float64) []float64 {
	p.CurrentsInto(dst, weights, avals)
	for i := range dst {
		dst[i] /= p.unitCurrent
	}
	return dst
}
