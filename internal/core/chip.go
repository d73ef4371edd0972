package core

import (
	"fmt"

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
	// identity and mapping kind.
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
	// lanes is the kernel dispatcher's job; conv and block are the
	// per-mapping bodies it runs, refilled per layer (see lanes.go).
	lanes laneJob
	conv  convLayer
	block blockLayer
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

// tapChunk is one pass worth of kernel taps: at most Nm positions.
type tapChunk struct {
	ky, kx []int
}

// tapChunks splits a KY x KX kernel footprint into row-major chunks of
// at most Nm taps, the "additional cycles" a kernel larger than the
// PLCU requires (Section III-A).
func (c *Chip) tapChunks(ky, kx int) []tapChunk {
	var chunks []tapChunk
	cur := tapChunk{}
	for y := 0; y < ky; y++ {
		for x := 0; x < kx; x++ {
			cur.ky = append(cur.ky, y)
			cur.kx = append(cur.kx, x)
			if len(cur.ky) == c.cfg.Nm {
				chunks = append(chunks, cur)
				cur = tapChunk{}
			}
		}
	}
	if len(cur.ky) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// prequantizeInput validates, normalizes, and DAC-quantizes the whole
// activation volume into the chip's scratch volume, returning it and
// the normalization scale. Negative activations are invalid: Albireo
// encodes activations as optical power (Section II-B), so inputs must
// be non-negative (post-ReLU, or pre-shifted images). Doing the
// quantization once per layer instead of once per cycle is
// bit-identical - quantization is a pure pointwise function - and
// removes it from the hot path entirely. A zero scale means an
// all-zero input; the scratch contents are unused in that case
// because callers early-return on a zero output scale.
func (c *Chip) prequantizeInput(a *tensor.Volume) (*tensor.Volume, float64) {
	return c.prequantizePadded(a, 0, a.Y, a.X)
}

// prequantizePadded is prequantizeInput into a zero-padded layout:
// each channel becomes a ph x pw plane holding the input at row and
// column offset pad, zero elsewhere - the values tensor.AtPadded reads
// - so receptive-field windows read it without bounds checks.
func (c *Chip) prequantizePadded(a *tensor.Volume, pad, ph, pw int) (*tensor.Volume, float64) {
	scale := c.padInput(a, ph, pw)
	for z := 0; z < a.Z && scale != 0; z++ {
		c.quantizePlane(a, z, pad, scale)
	}
	return &c.qaVol, scale
}

// padInput validates the activations, sizes the chip's scratch volume
// for ph x pw planes, and returns the normalization scale.
func (c *Chip) padInput(a *tensor.Volume, ph, pw int) float64 {
	for _, v := range a.Data {
		if v < 0 {
			panic("core: activations must be non-negative (optical power encoding)") //lint:ignore exit-hygiene non-negative activations are the optical power encoding invariant
		}
	}
	growVolume(&c.qaVol, a.Z, ph, pw)
	return a.MaxAbs()
}

// quantizePlane fills channel z's plane of the scratch volume (see
// prequantizePadded). Planes are disjoint, so depthwise kernels
// quantize their own channel on their lane.
//
// hot: per-channel quantization; must not allocate.
func (c *Chip) quantizePlane(a *tensor.Volume, z, pad int, scale float64) {
	ph, pw := c.qaVol.Y, c.qaVol.X
	plane := c.qaVol.Data[z*ph*pw : (z+1)*ph*pw]
	if ph != a.Y || pw != a.X {
		clear(plane)
	}
	for y := 0; y < a.Y; y++ {
		src := a.Data[(z*a.Y+y)*a.X:][:a.X]
		dst := plane[(pad+y)*pw+pad:][:a.X]
		for x, v := range src {
			dst[x] = c.aq.Quantize(v / scale)
		}
	}
}

// paddedDims returns the plane extent of a receptive-field layer's
// padded input (see prequantizePadded): pad rows and columns before
// the data, and enough after it that every tap of every Nd-wide output
// tile - dead columns past the row end included - reads inside the
// plane.
func paddedDims(a *tensor.Volume, w *tensor.Kernels, pad, stride int, out *tensor.Volume, nd int) (ph, pw int) {
	lastTile := (out.X - 1) / nd * nd
	ph = max(pad+a.Y, (out.Y-1)*stride+w.Y)
	pw = max(pad+a.X, (lastTile+nd-1)*stride+w.X)
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

// receptiveField runs the shard's kernels of a dense (progConv) or
// depthwise (progDepthwise) layer into the caller's pre-zeroed out
// volume: the weight program comes from the cache, the activations
// are pre-quantized once into the padded layout and a dense layer's
// row plan is filled once, channels spread over the lanes, and then
// the kernels fan out over the lanes. Each depthwise channel's plane
// and rows serve exactly one kernel, so the depthwise body quantizes
// and fills its own channel on its lane.
func (c *Chip) receptiveField(kind programKind, a *tensor.Volume, w *tensor.Kernels, stride, pad int, relu bool, shard ShardSpec, out *tensor.Volume) {
	ph, pw := paddedDims(a, w, pad, stride, out, c.cfg.Nd)
	aScale := c.padInput(a, ph, pw)
	pr := c.programShard(kind, w, shard)
	name, body := "conv", kernelBody(&c.conv)
	if kind == progDepthwise {
		name, body = "depthwise", (*depthwiseLayer)(&c.conv)
	}
	sp := c.ins.beginLayer(name, w.M, w.Z, w.Y, w.X)
	defer sp.End()
	if s := aScale * pr.wScale; s != 0 {
		c.plan.receptive(&c.qaVol, pr.chunks, out, stride)
		c.conv = convLayer{c: c, a: a, pad: pad, aScale: aScale, pr: pr, out: out, relu: relu, outScale: s}
		if kind == progConv {
			c.fillPlan(a.Z, (*receptiveFill)(&c.conv))
		}
		c.forEachKernel(sp, w.M, shard, body)
	}
}

// convLayer is the per-kernel body of a receptive-field layer: the
// input and its padding and scale (which depthwise kernels quantize),
// the compiled weights and the output volume every kernel shares; the
// rows come from the chip's plan. The chip owns one and refills it per
// layer.
type convLayer struct {
	c        *Chip
	a        *tensor.Volume
	pad      int
	aScale   float64
	pr       *weightProgram
	out      *tensor.Volume
	relu     bool
	outScale float64
}

// kernel streams every output tile of dense-conv kernel m through its
// owning PLCG: weights come from the compiled program, activation rows
// from the plan, and partial sums accumulate across channel groups and
// tap chunks. Only a tile's live columns - those inside the output row
// - are computed. Only the lane that owns m's group position runs it,
// so the group scratch needs no locking.
//
// hot: steady-state layer loop; per-tile work must not allocate.
func (l *convLayer) kernel(m int) {
	c, pr := l.c, l.pr
	gi := c.activeGroup(m)
	g := c.groups[gi]
	nug := g.Capacity()
	sc := &g.conv
	plan := &c.plan
	nd := c.cfg.Nd
	nchunks := len(pr.chunks)
	for oy := 0; oy < l.out.Y; oy++ {
		for ox0 := 0; ox0 < l.out.X; ox0 += nd {
			tile := oy*plan.tilesX + ox0/nd
			acc := sc.acc[:min(nd, l.out.X-ox0)]
			for d := range acc {
				acc[d] = 0
			}
			for z0 := 0; z0 < pr.zDim; z0 += nug {
				nu := min(nug, pr.zDim-z0)
				for ci := 0; ci < nchunks; ci++ {
					for u := 0; u < nu; u++ {
						s := (z0+u)*nchunks + ci
						sc.weights[u] = pr.slot(m, s)
						sc.avals[u] = plan.set(tile, s)
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
// plane m, applying the ReLU.
//
// hot: per-tile write-back; must not allocate.
func (l *convLayer) writeTile(acc []float64, m, oy, ox0 int) {
	for d := range acc {
		v := acc[d] * l.outScale
		if l.relu && v < 0 {
			v = 0
		}
		l.out.Set(m, oy, ox0+d, v)
	}
}

// depthwiseLayer is convLayer's depthwise body: one single-channel
// kernel per input channel, no cross-channel aggregation (Section
// III-C: "aggregation is not performed across channels for depthwise
// kernels").
type depthwiseLayer convLayer

// kernel quantizes channel z, then streams every output tile of it
// through the first healthy unit of its owning PLCG, filling the
// tile's rows of the plan first.
//
// hot: steady-state layer loop; per-tile work must not allocate.
func (l *depthwiseLayer) kernel(z int) {
	c, pr := l.c, l.pr
	gi := c.activeGroup(z)
	g := c.groups[gi]
	sc := &g.conv
	plan := &c.plan
	c.quantizePlane(l.a, z, l.pad, l.aScale)
	nd := c.cfg.Nd
	nchunks := len(pr.chunks)
	for oy := 0; oy < l.out.Y; oy++ {
		for ox0 := 0; ox0 < l.out.X; ox0 += nd {
			tile := oy*plan.tilesX + ox0/nd
			plan.fillTile(z, oy, ox0/nd)
			acc := sc.acc[:min(nd, l.out.X-ox0)]
			for d := range acc {
				acc[d] = 0
			}
			for ci := range pr.chunks {
				sc.weights[0] = pr.slot(z, ci)
				sc.avals[0] = plan.set(tile, z*nchunks+ci)
				part := g.stepPrequantized(sc.part, sc.weights[:1], sc.avals[:1], len(acc))
				if c.ins != nil {
					c.ins.step(gi, 1)
				}
				for d := range acc {
					acc[d] += part[d]
				}
			}
			(*convLayer)(l).writeTile(acc, z, oy, ox0)
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

// depthwiseConv applies one single-channel kernel per input channel
// (see depthwiseLayer).
func (c *Chip) depthwiseConv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	if w.M != a.Z || w.Z != 1 {
		panic("core: depthwise wants one depth-1 kernel per input channel") //lint:ignore exit-hygiene depthwise kernel shape invariant; caller bug
	}
	stride := convStride(cfg)
	out := tensor.NewVolume(a.Z, tensor.ConvOutputDim(a.Y, w.Y, cfg.Pad, stride), tensor.ConvOutputDim(a.X, w.X, cfg.Pad, stride))
	c.receptiveField(progDepthwise, a, w, stride, cfg.Pad, relu, ShardSpec{}, out)
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
	c.pointwiseShard(a, w, relu, ShardSpec{}, out)
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
