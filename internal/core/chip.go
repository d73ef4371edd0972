package core

import (
	"fmt"

	"albireo/internal/obs"
	"albireo/internal/quant"
	"albireo/internal/tensor"
)

// Chip is the functional model of the full Albireo accelerator
// (Figure 6a): Ng PLCGs fed by a broadcast of the same input signals,
// each applying a different kernel. Conv, Depthwise, Pointwise, and
// FullyConnected execute real layers through the analog pipeline,
// following the partitioning of Algorithm 2.
//
// The steady-state layer loops are weight-stationary and
// allocation-free: weight programs are compiled once per kernel
// tensor (see program.go), activations are normalized and
// DAC-quantized once per layer into a chip-owned scratch volume, and
// every per-tile buffer comes from the per-PLCG scratch arenas.
type Chip struct {
	cfg    Config
	groups []*PLCG
	ins    *chipObs
	// active lists the PLCG indices with healthy capacity, ascending:
	// the kernel round-robin targets. All groups until quarantined.
	active []int
	// aq mirrors the PLCUs' activation DAC so whole input volumes can
	// be pre-quantized once per layer instead of once per cycle.
	aq quant.Quantizer
	// qaVol is the chip-owned pre-quantized activation scratch; its
	// backing array grows to the largest layer seen and is then
	// reused.
	qaVol tensor.Volume
	// plan is the current layer's folded activation rows, built once
	// before the kernels fan out (see plan.go).
	plan rowPlan
	// progs caches compiled weight programs keyed by kernel-tensor
	// identity and layout.
	progs map[progKey]*weightProgram
	// schedEpoch advances on every quarantine transition, invalidating
	// compiled programs whose slot-to-unit assignment it changes.
	schedEpoch int64
	// posVol/negVol stage a GEMM activation matrix's positive and
	// negative parts (transposed into volume layout) for the signed
	// two-pass decomposition; gemmAcc is the pre-transpose output
	// scratch; gather is the live-tap im2col of a dense conv on the
	// block layout (see livetaps.go). All grow once and are reused.
	posVol, negVol, gather tensor.Volume
	gemmAcc                []float64
	// views caches kernel-bank views of GEMM weight matrices and of
	// live-tap conv kernels (see gemm.go); tapOffs is the live-tap
	// offset scratch their refill reuses.
	views   map[viewKey]*tensor.Kernels
	tapOffs []int
	// lanes is the kernel dispatcher's job and layer the per-kernel
	// body it runs, refilled per layer (see lanes.go).
	lanes laneJob
	layer layer
}

// NewChip builds a functional chip.
func NewChip(cfg Config) *Chip {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid config: %v", err)) //lint:ignore exit-hygiene constructor refuses a config Validate already rejected; caller bug
	}
	groups := make([]*PLCG, cfg.Ng)
	active := make([]int, cfg.Ng)
	for gi := range groups {
		gcfg := cfg
		gcfg.Seed = cfg.Seed*7919 + int64(gi)
		groups[gi] = NewPLCG(gcfg)
		active[gi] = gi
	}
	return &Chip{
		cfg:    cfg,
		groups: groups,
		active: active,
		aq:     quant.NewActivation(cfg.DACBits, 1),
		plan:   newRowPlan(cfg),
	}
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Groups exposes the PLCGs (read-only use).
func (c *Chip) Groups() []*PLCG { return c.groups }

// padInput validates the activations, sizes the chip's scratch volume
// for ph x pw planes, and returns the normalization scale. Negative
// activations are invalid: Albireo encodes activations as optical
// power (Section II-B), so inputs must be non-negative (post-ReLU, or
// pre-shifted images). A zero scale means an all-zero input; the
// scratch is then unused because run returns on a zero output scale.
func (c *Chip) padInput(a *tensor.Volume, ph, pw int) float64 {
	for _, v := range a.Data {
		if v < 0 {
			panic("core: activations must be non-negative (optical power encoding)") //lint:ignore exit-hygiene non-negative activations are the optical power encoding invariant
		}
	}
	growVolume(&c.qaVol, a.Z, ph, pw)
	return a.MaxAbs()
}

// quantizePlane normalizes and DAC-quantizes channel z of a into its
// plane of the scratch volume: a ph x pw plane holding the input at
// row and column offset pad, zero elsewhere - the values
// tensor.AtPadded reads - so receptive-field windows read it without
// bounds checks. Rows past a's data (the ragged last channel of a
// block layout's view) are zero. Quantizing once per layer instead of
// once per cycle is bit-identical - quantization is a pure pointwise
// function - and planes are disjoint, so channels quantize on the
// lanes.
//
// hot: per-channel quantization; must not allocate.
func (c *Chip) quantizePlane(a *tensor.Volume, z, pad int, scale float64) {
	ph, pw := c.qaVol.Y, c.qaVol.X
	plane := c.qaVol.Data[z*ph*pw : (z+1)*ph*pw]
	if ph != a.Y || pw != a.X {
		clear(plane)
	}
	for y := 0; y < a.Y; y++ {
		dst := plane[(pad+y)*pw+pad:][:a.X]
		i := (z*a.Y + y) * a.X
		if i >= len(a.Data) {
			clear(dst)
			continue
		}
		for x, v := range a.Data[i:][:a.X] {
			dst[x] = c.aq.Quantize(v / scale)
		}
	}
}

// paddedDims returns the plane extent of a layer's padded input (see
// quantizePlane): pad rows and columns before the data, and enough
// after it that every tap of every Nd-wide output tile - dead columns
// past the row end included - reads inside the plane.
func paddedDims(a *tensor.Volume, lay layout, pad, stride int, out *tensor.Volume, nd int) (ph, pw int) {
	lastTile := (out.X - 1) / nd * nd
	ph = max(pad+a.Y, (out.Y-1)*stride+lay.ky)
	pw = max(pad+a.X, (lastTile+nd-1)*stride+lay.kx)
	return ph, pw
}

// Conv executes a convolution layer through the analog pipeline
// (Algorithm 2) and returns the output volume in the caller's value
// domain. Kernels are distributed round-robin over the PLCGs; output
// columns are produced Nd at a time; channels are aggregated Nu at a
// time; kernels larger than Nm take multiple tap chunks per channel
// group. A dense layer whose live taps leave waveguides empty runs on
// the pointwise layout instead (see livetaps.go). If relu is true the
// activation is applied during aggregation write-back, as the hardware
// does.
func (c *Chip) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	if cfg.Depthwise {
		return c.depthwiseConv(a, w, cfg, relu)
	}
	if cfg.Groups != 0 && cfg.Groups != 1 {
		return c.groupedConv(a, w, cfg, relu)
	}
	if w.Z != a.Z {
		panic(fmt.Sprintf("core: kernel depth %d != input channels %d", w.Z, a.Z)) //lint:ignore exit-hygiene kernel/input shape invariant; caller bug
	}
	stride := convStride(cfg)
	out := tensor.NewVolume(w.M, tensor.ConvOutputDim(a.Y, w.Y, cfg.Pad, stride), tensor.ConvOutputDim(a.X, w.X, cfg.Pad, stride))
	c.denseConv(a, w, cfg, relu, ShardSpec{}, out)
	return out
}

// convStride is the layer stride, with the zero value meaning 1.
func convStride(cfg tensor.ConvConfig) int {
	if cfg.Stride == 0 {
		return 1
	}
	return cfg.Stride
}

// layer is one layer's kernel loop, the one loop every mapping runs
// (Algorithm 2): each kernel streams every Nd-wide output tile through
// its owning PLCG, aggregating lay.z channels Nu at a time and
// lay.chunks tap chunks per channel. Dense conv is the loop as is; a
// depthwise layer is the loop with one channel per kernel that reads
// only its own input channel (own); the block layout runs it over an
// Nm-row view (see Chip.blockLayer). The chip owns one and refills it
// per layer.
type layer struct {
	c *Chip
	// a is the input and out the output volume; the block layout's
	// are headers over the caller's data.
	a, out tensor.Volume
	w      *tensor.Kernels
	lay    layout
	// stride and pad are the layer geometry on a's plane.
	stride, pad int
	// relu clamps at write-back; subtract makes write-back subtract
	// instead of assign (a GEMM negative pass: the digital aggregation
	// unit's A = A+ - A- combine).
	relu, subtract bool
	// own marks a depthwise layer: kernel m reads only channel m, so it
	// quantizes and fills that channel's plane and sets on its own lane
	// (no other kernel reads them).
	own bool
	// pr is w's compiled program, which run looks up unless it is set
	// (a GEMM's second pass reuses the first's); aScale and outScale
	// are set by run.
	pr               *weightProgram
	aScale, outScale float64
}

// run executes l's kernels the shard owns into l.out, which the caller
// pre-zeroed: the input is validated and its scale taken on this lane,
// the weight program comes from the cache, then - unless the layer is
// depthwise - the channels are quantized into the padded layout and
// the row plan filled once, spread over the lanes, and the kernels fan
// out over the lanes. An all-zero input or kernel bank leaves out
// zero and runs no cycle (a GEMM's empty negative pass). It returns l
// with its program and scales.
func (c *Chip) run(sp *obs.Span, l layer, shard ShardSpec) layer {
	ph, pw := paddedDims(&l.a, l.lay, l.pad, l.stride, &l.out, c.cfg.Nd)
	if l.aScale = c.padInput(&l.a, ph, pw); l.aScale == 0 {
		return l
	}
	if l.pr == nil {
		l.pr = c.programShard(l.w, l.lay, shard)
	}
	if l.outScale = l.aScale * l.pr.wScale; l.outScale == 0 {
		return l
	}
	l.c = c
	c.plan.receptive(&c.qaVol, l.lay, &l.out, l.stride)
	c.layer = l
	if !l.own {
		c.fillPlan(l.a.Z, (*receptiveFill)(&c.layer))
	}
	c.forEachKernel(sp, l.w.M, shard, &c.layer)
	// The body references the layer's tensors; drop them so a chip
	// does not keep its last input and output alive.
	c.layer = layer{}
	return l
}

// kernel streams every output tile of kernel m through its owning
// PLCG: weights come from the compiled program, activation rows from
// the plan, and partial sums accumulate across channel groups and tap
// chunks. Only a tile's live columns - those inside the output row -
// are computed. Only the lane that owns m's group position runs it,
// so the group scratch needs no locking. A depthwise kernel first
// quantizes its own channel, and fills that channel's sets one output
// row at a time.
//
// hot: steady-state layer loop; per-tile work must not allocate.
func (l *layer) kernel(m int) {
	c, pr := l.c, l.pr
	gi := c.activeGroup(m)
	g := c.groups[gi]
	nug := g.Capacity()
	sc := &g.conv
	plan := &c.plan
	nd, zDim, nchunks := c.cfg.Nd, l.lay.z, pr.nchunks
	// key0 is the plan key of the kernel's first channel.
	key0 := 0
	if l.own {
		c.quantizePlane(&l.a, m, l.pad, l.aScale)
		key0 = m * nchunks
	}
	for oy := 0; oy < l.out.Y; oy++ {
		if l.own {
			plan.fillRow(m, oy)
		}
		for ox0 := 0; ox0 < l.out.X; ox0 += nd {
			tile := oy*plan.tilesX + ox0/nd
			acc := sc.acc[:min(nd, l.out.X-ox0)]
			for d := range acc {
				acc[d] = 0
			}
			for z0 := 0; z0 < zDim; z0 += nug {
				nu := min(nug, zDim-z0)
				for ci := 0; ci < nchunks; ci++ {
					for u := 0; u < nu; u++ {
						s := (z0+u)*nchunks + ci
						sc.weights[u] = pr.slot(m, s)
						sc.avals[u] = plan.set(tile, key0+s)
					}
					part := g.stepPrequantized(sc.part, sc.weights[:nu], sc.avals[:nu], len(acc))
					if c.ins != nil {
						c.ins.step(gi, nu)
					}
					for d := range acc {
						acc[d] += part[d]
					}
				}
			}
			l.writeTile(acc, m, oy, ox0)
		}
	}
}

// writeTile scales one accumulator tile of live columns into output
// plane m: assigned with the ReLU applied, or subtracted on a GEMM
// negative pass.
//
// hot: per-tile write-back; must not allocate.
func (l *layer) writeTile(acc []float64, m, oy, ox0 int) {
	o := l.out.Data[(m*l.out.Y+oy)*l.out.X+ox0:][:len(acc)]
	for d, a := range acc {
		v := a * l.outScale
		switch {
		case l.subtract:
			o[d] -= v
		case l.relu && v < 0:
			o[d] = 0
		default:
			o[d] = v
		}
	}
}

// groupedConv runs a grouped convolution as independent dense
// convolutions over channel slices.
func (c *Chip) groupedConv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	groups := cfg.Groups
	if a.Z%groups != 0 || w.M%groups != 0 {
		panic(fmt.Sprintf("core: groups %d do not divide channels %d/%d", groups, a.Z, w.M)) //lint:ignore exit-hygiene group divisibility invariant; caller bug
	}
	zPer, mPer := a.Z/groups, w.M/groups
	stride := convStride(cfg)
	by := tensor.ConvOutputDim(a.Y, w.Y, cfg.Pad, stride)
	bx := tensor.ConvOutputDim(a.X, w.X, cfg.Pad, stride)
	out := tensor.NewVolume(w.M, by, bx)
	for gi := 0; gi < groups; gi++ {
		sub := tensor.NewVolume(zPer, a.Y, a.X)
		for z := 0; z < zPer; z++ {
			for y := 0; y < a.Y; y++ {
				for x := 0; x < a.X; x++ {
					sub.Set(z, y, x, a.At(gi*zPer+z, y, x))
				}
			}
		}
		subW := tensor.NewKernels(mPer, w.Z, w.Y, w.X)
		copy(subW.Data, w.Data[gi*mPer*w.Z*w.Y*w.X:(gi+1)*mPer*w.Z*w.Y*w.X])
		subOut := c.Conv(sub, subW, tensor.ConvConfig{Stride: stride, Pad: cfg.Pad}, relu)
		for m := 0; m < mPer; m++ {
			for y := 0; y < by; y++ {
				for x := 0; x < bx; x++ {
					out.Set(gi*mPer+m, y, x, subOut.At(m, y, x))
				}
			}
		}
	}
	return out
}

// depthwiseConv applies one single-channel kernel per input channel,
// with no cross-channel aggregation (Section III-C: "aggregation is
// not performed across channels for depthwise kernels"): the layer
// loop with one channel per kernel, which reads its own input channel
// through the group's first healthy unit.
func (c *Chip) depthwiseConv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	if w.M != a.Z || w.Z != 1 {
		panic("core: depthwise wants one depth-1 kernel per input channel") //lint:ignore exit-hygiene depthwise kernel shape invariant; caller bug
	}
	stride := convStride(cfg)
	out := tensor.NewVolume(a.Z, tensor.ConvOutputDim(a.Y, w.Y, cfg.Pad, stride), tensor.ConvOutputDim(a.X, w.X, cfg.Pad, stride))
	sp := c.ins.beginLayer("depthwise", w.M, w.Z, w.Y, w.X)
	defer sp.End()
	c.run(sp, layer{a: *a, out: *out, w: w, lay: layout{z: 1, ky: w.Y, kx: w.X}, stride: stride, pad: cfg.Pad, relu: relu, own: true}, ShardSpec{})
	return out
}

// Pointwise executes a 1x1 convolution with the Section III-C
// pointwise mapping: each PLCU tap carries one input channel, each PD
// column one output pixel, and channel aggregation happens across taps
// and PLCUs.
func (c *Chip) Pointwise(a *tensor.Volume, w *tensor.Kernels, relu bool) *tensor.Volume {
	if w.Y != 1 || w.X != 1 || w.Z != a.Z {
		panic("core: pointwise wants 1x1 kernels of full depth") //lint:ignore exit-hygiene pointwise kernel shape invariant; caller bug
	}
	out := tensor.NewVolume(w.M, a.Y, a.X)
	sp := c.ins.beginLayer("pointwise", w.M, w.Z, w.Y, w.X)
	defer sp.End()
	c.blockLayer(sp, a.Data, a.Y*a.X, w, relu, ShardSpec{}, out.Data)
	return out
}

// FullyConnected executes an FC layer: each output neuron's kernel
// covers the whole input volume (Section III-C). Only one PD column
// does useful work per PLCU (no parameter sharing); the others carry
// zero activations.
func (c *Chip) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	out := make([]float64, w.M)
	c.FullyConnectedShard(a, w, relu, ShardSpec{}, out)
	return out
}
