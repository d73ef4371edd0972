package core

import (
	"fmt"
	"sync"

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
	// progs caches compiled weight programs keyed by kernel-tensor
	// identity and mapping kind.
	progs map[progKey]*weightProgram
	// schedEpoch advances on every quarantine transition, invalidating
	// compiled programs whose slot-to-unit assignment it changes.
	schedEpoch int64
	// posVol/negVol stage a GEMM activation matrix's positive and
	// negative parts (transposed into volume layout) for the signed
	// two-pass decomposition; gemmAcc is the pre-transpose output
	// scratch and bviews caches kernel-bank views of GEMM weight
	// matrices (see gemm.go). All grow once and are reused.
	posVol, negVol tensor.Volume
	gemmAcc        []float64
	bviews         map[*tensor.Matrix]*gemmView
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
	for _, v := range a.Data {
		if v < 0 {
			panic("core: activations must be non-negative (optical power encoding)") //lint:ignore exit-hygiene non-negative activations are the optical power encoding invariant
		}
	}
	scale := a.MaxAbs()
	n := len(a.Data)
	if cap(c.qaVol.Data) < n {
		c.qaVol.Data = make([]float64, n)
	}
	c.qaVol.Data = c.qaVol.Data[:n]
	c.qaVol.Z, c.qaVol.Y, c.qaVol.X = a.Z, a.Y, a.X
	if scale == 0 {
		return &c.qaVol, 0
	}
	for i, v := range a.Data {
		c.qaVol.Data[i] = c.aq.Quantize(v / scale)
	}
	return &c.qaVol, scale
}

// Conv executes a convolution layer through the analog pipeline
// (Algorithm 2) and returns the output volume in the caller's value
// domain. Kernels are distributed round-robin over the PLCGs; output
// columns are produced Nd at a time; channels are aggregated Nu at a
// time; kernels larger than Nm take multiple tap chunks per channel
// group. If relu is true the activation is applied during aggregation
// write-back, as the hardware does.
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
	stride := cfg.Stride
	if stride == 0 {
		stride = 1
	}
	qa, aScale := c.prequantizeInput(a)
	pr := c.programFor(progConv, w)
	outScale := aScale * pr.wScale

	by := tensor.ConvOutputDim(a.Y, w.Y, cfg.Pad, stride)
	bx := tensor.ConvOutputDim(a.X, w.X, cfg.Pad, stride)
	out := tensor.NewVolume(w.M, by, bx)
	sp := c.ins.beginLayer("conv", w.M, w.Z, w.Y, w.X)
	defer sp.End()
	if outScale == 0 {
		return out
	}
	for m := 0; m < w.M; m++ {
		c.convKernel(qa, pr, sp, out, m, by, bx, stride, cfg.Pad, relu, outScale)
	}
	return out
}

// convKernel streams every output tile of kernel m through its owning
// PLCG: weights come from the compiled program, activations are
// gathered into the group's scratch arena, and partial sums
// accumulate across channel groups and tap chunks. Shared by Conv and
// ConvConcurrent; in the concurrent path each goroutine owns exactly
// one PLCG, so the group scratch needs no locking.
//
//hot: steady-state layer loop; per-tile work must not allocate.
func (c *Chip) convKernel(qa *tensor.Volume, pr *weightProgram, sp *obs.Span, out *tensor.Volume, m, by, bx, stride, pad int, relu bool, outScale float64) {
	gi := c.assignGroup(m)
	g := c.groups[gi]
	nug := g.Capacity()
	sc := &g.conv
	c.ins.tile(sp, m, gi)
	nchunks := len(pr.chunks)
	for oy := 0; oy < by; oy++ {
		for ox0 := 0; ox0 < bx; ox0 += c.cfg.Nd {
			acc := sc.acc
			for d := range acc {
				acc[d] = 0
			}
			for z0 := 0; z0 < pr.zDim; z0 += nug {
				nu := min(nug, pr.zDim-z0)
				for ci := 0; ci < nchunks; ci++ {
					for u := 0; u < nu; u++ {
						sc.weights[u] = pr.slot(m, (z0+u)*nchunks+ci)
						fillWindow(sc.avals[u], qa, z0+u, oy, ox0, stride, pad, &pr.chunks[ci], c.cfg.Nd)
					}
					part := g.stepPrequantized(sc.part, sc.weights[:nu], sc.avals[:nu])
					if c.ins != nil {
						c.ins.step(gi, nu)
					}
					for d := range acc {
						acc[d] += part[d]
					}
				}
			}
			for d := 0; d < c.cfg.Nd && ox0+d < bx; d++ {
				v := acc[d] * outScale
				if relu && v < 0 {
					v = 0
				}
				out.Set(m, oy, ox0+d, v)
			}
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
	stride := cfg.Stride
	if stride == 0 {
		stride = 1
	}
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
// without cross-channel aggregation (Section III-C: "aggregation is
// not performed across channels for depthwise kernels").
func (c *Chip) depthwiseConv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	if w.M != a.Z || w.Z != 1 {
		panic("core: depthwise wants one depth-1 kernel per input channel") //lint:ignore exit-hygiene depthwise kernel shape invariant; caller bug
	}
	stride := cfg.Stride
	if stride == 0 {
		stride = 1
	}
	qa, aScale := c.prequantizeInput(a)
	pr := c.programFor(progDepthwise, w)
	outScale := aScale * pr.wScale
	by := tensor.ConvOutputDim(a.Y, w.Y, cfg.Pad, stride)
	bx := tensor.ConvOutputDim(a.X, w.X, cfg.Pad, stride)
	out := tensor.NewVolume(a.Z, by, bx)
	sp := c.ins.beginLayer("depthwise", w.M, w.Z, w.Y, w.X)
	defer sp.End()
	if outScale == 0 {
		return out
	}
	nchunks := len(pr.chunks)
	for z := 0; z < a.Z; z++ {
		gi := c.assignGroup(z)
		g := c.groups[gi]
		sc := &g.conv
		c.ins.tile(sp, z, gi)
		for oy := 0; oy < by; oy++ {
			for ox0 := 0; ox0 < bx; ox0 += c.cfg.Nd {
				acc := sc.acc
				for d := range acc {
					acc[d] = 0
				}
				for ci := 0; ci < nchunks; ci++ {
					sc.weights[0] = pr.slot(z, ci)
					fillWindow(sc.avals[0], qa, z, oy, ox0, stride, cfg.Pad, &pr.chunks[ci], c.cfg.Nd)
					part := g.stepPrequantized(sc.part, sc.weights[:1], sc.avals[:1])
					if c.ins != nil {
						c.ins.step(gi, 1)
					}
					for d := range acc {
						acc[d] += part[d]
					}
				}
				for d := 0; d < c.cfg.Nd && ox0+d < bx; d++ {
					v := acc[d] * outScale
					if relu && v < 0 {
						v = 0
					}
					out.Set(z, oy, ox0+d, v)
				}
			}
		}
	}
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
	qa, aScale := c.prequantizeInput(a)
	pr := c.programFor(progBlock, w)
	outScale := aScale * pr.wScale
	out := tensor.NewVolume(w.M, a.Y, a.X)
	sp := c.ins.beginLayer("pointwise", w.M, w.Z, w.Y, w.X)
	defer sp.End()
	if outScale == 0 {
		return out
	}
	npix := a.Y * a.X
	for m := 0; m < w.M; m++ {
		c.pointwiseKernel(qa, pr, sp, out, m, npix, relu, outScale)
	}
	return out
}

// FullyConnected executes an FC layer: each output neuron's kernel
// covers the whole input volume (Section III-C). Only one PD column
// does useful work per PLCU (no parameter sharing); the others carry
// zero activations.
func (c *Chip) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	if w.Z != a.Z || w.Y != a.Y || w.X != a.X {
		panic("core: FC kernel shape must match the input volume") //lint:ignore exit-hygiene FC kernel shape invariant; caller bug
	}
	qa, aScale := c.prequantizeInput(a)
	pr := c.programFor(progBlock, w)
	outScale := aScale * pr.wScale
	out := make([]float64, w.M)
	sp := c.ins.beginLayer("fc", w.M, w.Z, w.Y, w.X)
	defer sp.End()
	if outScale == 0 {
		return out
	}
	for m := 0; m < w.M; m++ {
		v := c.fcNeuron(qa, pr, sp, m) * outScale
		if relu && v < 0 {
			v = 0
		}
		out[m] = v
	}
	return out
}

// ConvConcurrent is Conv with the PLCGs driven by parallel goroutines.
// PLCGs are independent hardware blocks with private noise streams and
// private scratch arenas, so partitioning kernels by their owning
// group preserves every group's sequential draw order: the result is
// bit-identical to Conv for the dense stride/pad path. Grouped and
// depthwise layers fall back to the sequential implementation.
func (c *Chip) ConvConcurrent(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	if cfg.Depthwise || (cfg.Groups != 0 && cfg.Groups != 1) {
		return c.Conv(a, w, cfg, relu)
	}
	if w.Z != a.Z {
		panic(fmt.Sprintf("core: kernel depth %d != input channels %d", w.Z, a.Z)) //lint:ignore exit-hygiene kernel/input shape invariant; caller bug
	}
	stride := cfg.Stride
	if stride == 0 {
		stride = 1
	}
	qa, aScale := c.prequantizeInput(a)
	pr := c.programFor(progConv, w)
	outScale := aScale * pr.wScale
	by := tensor.ConvOutputDim(a.Y, w.Y, cfg.Pad, stride)
	bx := tensor.ConvOutputDim(a.X, w.X, cfg.Pad, stride)
	out := tensor.NewVolume(w.M, by, bx)
	sp := c.ins.beginLayer("conv", w.M, w.Z, w.Y, w.X)
	defer sp.End()
	if outScale == 0 {
		return out
	}

	var wg sync.WaitGroup
	for pos := range c.active {
		pos := pos
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Kernel ownership is by active-group position, the same
			// assignment Conv's sequential assignGroup walk produces,
			// so each PLCU sees its kernels in the same order and the
			// noise draws stay bit-identical - and each goroutine
			// touches exactly one group's scratch arena.
			for m := pos; m < w.M; m += len(c.active) {
				c.convKernel(qa, pr, sp, out, m, by, bx, stride, cfg.Pad, relu, outScale)
			}
		}()
	}
	wg.Wait()
	return out
}
