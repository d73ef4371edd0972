package core

import (
	"math"

	"albireo/internal/tensor"
)

// The hardware programs a kernel's weight MZMs once and then streams
// the whole output plane through them (Algorithm 2's weight-stationary
// depth-first dataflow); only the activations change cycle to cycle.
// A weightProgram is the software mirror of that: the DAC-quantized,
// fault-effective weight code for every slot the layer will ever
// drive, compiled once per (kernel tensor, layout) and reused
// across all output positions - and across layers, since CNNs run the
// same weights on every inference.
//
// A compiled program bakes in three kinds of state and is invalidated
// when any of them changes:
//
//   - the kernel values themselves (detected by an exact bit compare
//     against a private snapshot, since callers may mutate tensors),
//   - the quarantine schedule, which decides which PLCU quantizes each
//     slot (chip.schedEpoch advances on Quarantine/ClearQuarantine),
//   - injected faults, whose StuckMZM transfers are folded into the
//     codes (the per-PLCU faultEpoch sum advances on InjectFault and
//     ClearFaults, including direct PLCU-level injection).
//
// Ring faults (DeadRing/DetunedRing) act on the activation side of the
// datapath and drift with the cycle counter, so they are deliberately
// not compiled in; PLCU.accumulate applies them per cycle.

// layout is the loop extent of a layer's kernels on the
// receptive-field layout (Algorithm 2): z channels per kernel, each a
// ky x kx tap footprint. Dense conv runs {Z, KY, KX} and depthwise
// {1, KY, KX}; the block layout (pointwise, FC, GEMM, live-tap conv)
// runs its n-element kernels as {ceil(n/Nm), Nm, 1} (see blockView),
// marked block: its Nm taps are Nm distinct elements per column, not a
// window the Nd columns share.
type layout struct {
	z, ky, kx int
	block     bool
}

// chunks is the number of tap chunks per channel, ceil(ky*kx/Nm): the
// "additional cycles" a kernel larger than the PLCU requires (Section
// III-A). Chunk ci carries taps ci*Nm.. in row-major order.
func (l layout) chunks(nm int) int { return (l.ky*l.kx + nm - 1) / nm }

// progKey identifies a cached program: the kernel tensor identity, the
// layout, and the (normalized) kernel-group shard it was compiled for.
// Whole-layer shards normalize to the zero ShardSpec so sharded and
// unsharded execution of a full slice share one entry.
type progKey struct {
	w     *tensor.Kernels
	lay   layout
	shard ShardSpec
}

// maxCachedPrograms bounds the chip's program cache. Grouped
// convolutions compile ephemeral per-group kernel slices, so the cache
// is cleared wholesale once it fills rather than tracking liveness.
const maxCachedPrograms = 64

// weightProgram is one compiled layer's weight codes.
type weightProgram struct {
	// wScale is the kernel normalization scale (MaxAbs). Zero means
	// the layer is all zeros; no codes are compiled and callers
	// early-return on a zero output scale.
	wScale float64
	// m, z, y, x snapshot the kernel geometry the program was compiled
	// from.
	m, z, y, x int
	// src is a private copy of the kernel data for staleness
	// detection.
	src []float64
	// nchunks is the tap chunk count of the layout the slots are laid
	// out for, and nm the slot width (Config.Nm).
	nchunks, nm int
	// slotsPer is the number of slots per kernel, lay.z*nchunks: slot
	// z*nchunks+ci is channel z's tap chunk ci.
	slotsPer int
	// codes holds slotsPer*nm fault-effective quantized weights per
	// kernel, contiguous per slot.
	codes []float64
	// schedEpoch and faultEpoch record the chip state the program was
	// compiled under.
	schedEpoch int64
	faultEpoch int64
}

// slot returns the compiled weight vector of slot s of kernel m, with
// capacity clamped so callers cannot append into a neighbor.
func (pr *weightProgram) slot(m, s int) []float64 {
	base := (m*pr.slotsPer + s) * pr.nm
	return pr.codes[base : base+pr.nm : base+pr.nm]
}

// sameBits reports exact bit equality of two float slices. Comparing
// representations (not values) keeps the check NaN-safe: a changed
// NaN payload forces a rebuild, the conservative direction.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// faultEpochSum folds every PLCU's fault epoch into one cache
// validity token. A sum is enough: epochs only ever advance.
func (c *Chip) faultEpochSum() int64 {
	var s int64
	for _, g := range c.groups {
		for _, u := range g.units {
			s += u.faultEpoch
		}
	}
	return s
}

// programShard returns the compiled weight program of w's kernels on
// layout lay for a kernel-group shard, reusing the cached compilation
// when the kernel bits, quarantine schedule, and fault state are all
// unchanged. The program covers only the shard's owned kernels
// (unowned slots stay zero, so slot indexing is unchanged), which
// makes per-shard compile time and cache footprint proportional to
// the owned slice.
func (c *Chip) programShard(w *tensor.Kernels, lay layout, shard ShardSpec) *weightProgram {
	shard = normalizeShard(shard)
	key := progKey{w: w, lay: lay, shard: shard}
	fe := c.faultEpochSum()
	if pr, ok := c.progs[key]; ok &&
		pr.schedEpoch == c.schedEpoch && pr.faultEpoch == fe &&
		pr.m == w.M && pr.z == w.Z && pr.y == w.Y && pr.x == w.X &&
		sameBits(pr.src, w.Data) {
		return pr
	}
	pr := c.compileProgram(w, lay, shard)
	pr.schedEpoch, pr.faultEpoch = c.schedEpoch, fe
	if c.progs == nil {
		c.progs = make(map[progKey]*weightProgram)
	}
	if len(c.progs) >= maxCachedPrograms {
		clear(c.progs)
	}
	c.progs[key] = pr
	return pr
}

// compileProgram quantizes every slot's weight vector through the
// exact unit that will drive it under the current quarantine schedule,
// folding in that unit's DAC grid (value-uniform or voltage-domain)
// and StuckMZM transfers. The per-slot unit assignment mirrors the
// layer loop: slot (m, z, ci) lands on group activeGroup(m), unit
// avail[z % capacity]. Tap t of the slot reads kernel element
// z*ky*kx + ci*Nm + t of kernel m, the row-major tap of channel z;
// taps past the footprint or past the kernel's n elements carry
// weight zero, which still quantizes through the unit's DAC grid and
// fault set, exactly as the quantize-on-entry path does. The kernel
// is read in place, never reshaped. A non-whole shard compiles only
// its owned kernels; the codes array stays full-size (unowned slots
// zero) so slot(m, s) indexing is layout-independent.
func (c *Chip) compileProgram(w *tensor.Kernels, lay layout, shard ShardSpec) *weightProgram {
	pr := &weightProgram{
		wScale: w.MaxAbs(),
		m:      w.M, z: w.Z, y: w.Y, x: w.X,
		src:     append([]float64(nil), w.Data...),
		nchunks: lay.chunks(c.cfg.Nm), nm: c.cfg.Nm,
	}
	if pr.wScale == 0 {
		return pr
	}
	pr.slotsPer = lay.z * pr.nchunks
	pr.codes = make([]float64, w.M*pr.slotsPer*pr.nm)
	n, taps := w.Z*w.Y*w.X, lay.ky*lay.kx
	for m := 0; m < w.M; m++ {
		if !shard.Owns(m) {
			continue
		}
		g := c.groups[c.activeGroup(m)]
		nug := g.Capacity()
		for z := 0; z < lay.z; z++ {
			unit := g.units[g.avail[z%nug]]
			for ci := 0; ci < pr.nchunks; ci++ {
				slot := pr.slot(m, z*pr.nchunks+ci)
				for t := range slot {
					var nw float64
					if i := ci*pr.nm + t; i < taps && z*taps+i < n {
						nw = w.Data[m*n+z*taps+i] / pr.wScale
					}
					slot[t] = unit.effectiveWeight(t, unit.quantizeWeight(nw))
				}
			}
		}
	}
	return pr
}
