package core

import (
	"math/bits"

	"albireo/internal/tensor"
)

// Choosing a dense conv's layout from its live taps (DESIGN.md §17).
//
// A tap is live if it reads at least one non-padding input for some
// output pixel. The receptive-field layout gives each input channel a
// PLCU slot of Nm waveguides, one per tap, and the ADC full scale spans
// all of them, so a layer with L < Nm live taps uses at most L/Nm of
// the range the detector noise is measured against. Such a layer runs
// on the Section III-C block (pointwise) layout over its Z*L live
// (channel, tap) planes instead. Depthwise layers keep their layout:
// one channel per kernel leaves nothing to pack.

// liveTaps is the live-tap set of a kernel, one bit per kernel row (y)
// and column (x): tap (ky, kx) is live iff both bits are set, because
// an output pixel's row and column range independently.
type liveTaps struct{ y, x uint64 }

// count is L, the number of live taps.
func (t liveTaps) count() int { return bits.OnesCount64(t.y) * bits.OnesCount64(t.x) }

// live reports whether tap (ky, kx) is live.
func (t liveTaps) live(ky, kx int) bool { return t.y>>ky&1 == 1 && t.x>>kx&1 == 1 }

// offsets appends to dst the offsets ky*width+kx of the live taps of a
// kernel width columns wide, in row-major order.
func (t liveTaps) offsets(dst []int, width int) []int {
	for ys := t.y; ys != 0; ys &= ys - 1 {
		ky := bits.TrailingZeros64(ys)
		for xs := t.x; xs != 0; xs &= xs - 1 {
			dst = append(dst, ky*width+bits.TrailingZeros64(xs))
		}
	}
	return dst
}

// axisLive returns the live taps of one kernel axis of k taps sliding
// over n inputs at the given stride and pad. Tap t of output o reads
// input o*stride+t-pad; the first output to clear the leading pad is
// the only candidate that can still be inside the input.
func axisLive(n, k, stride, pad int) uint64 {
	out := tensor.ConvOutputDim(n, k, pad, stride)
	var live uint64
	for t := 0; t < k; t++ {
		o := 0
		if pad > t {
			o = (pad - t + stride - 1) / stride
		}
		if o < out && o*stride+t-pad < n {
			live |= 1 << t
		}
	}
	return live
}

// denseLayout is the live-tap rule, the one place a dense conv's
// mapping is chosen: it returns the live taps of a ky x kx kernel over
// an ay x ax input and whether the layer runs on the block layout
// (L < Nm). Kernels wider than the masks keep the receptive-field
// layout. A stride of zero means 1.
func (c Config) denseLayout(ay, ax, ky, kx, stride, pad int) (liveTaps, bool) {
	if ky > 64 || kx > 64 {
		return liveTaps{}, false
	}
	stride = max(stride, 1)
	t := liveTaps{y: axisLive(ay, ky, stride, pad), x: axisLive(ax, kx, stride, pad)}
	return t, t.count() < c.Nm
}

// denseConv runs the shard's kernels of a dense convolution into the
// caller's pre-zeroed out volume, on the layout the live-tap rule
// picks. Chip.Conv and ConvShard both land here, so whole and sharded
// runs take the same mapping.
func (c *Chip) denseConv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool, shard ShardSpec, out *tensor.Volume) {
	stride := convStride(cfg)
	taps, block := c.cfg.denseLayout(a.Y, a.X, w.Y, w.X, stride, cfg.Pad)
	if !block {
		sp := c.ins.beginLayer("conv", w.M, w.Z, w.Y, w.X)
		defer sp.End()
		c.run(sp, layer{a: *a, out: *out, w: w, lay: layout{z: w.Z, ky: w.Y, kx: w.X}, stride: stride, pad: cfg.Pad, relu: relu}, shard)
		return
	}
	x, k := a, w
	if w.Y != 1 || w.X != 1 || stride != 1 || cfg.Pad != 0 {
		x = c.gatherTaps(a, w, taps, stride, cfg.Pad, out)
	}
	if l := taps.count(); l != w.Y*w.X {
		k = c.viewFor(viewKey{w: w, taps: taps}, w.M, w.Z*l)
	}
	sp := c.ins.beginLayer("pointwise", k.M, k.Z, k.Y, k.X)
	defer sp.End()
	c.blockLayer(sp, x.Data, x.Y*x.X, k, relu, shard, out.Data)
}

// gatherTaps fills the chip's gather volume with the live-tap im2col
// of a: plane z*L+l holds, at output pixel (oy, ox), the input live
// tap l (row-major) of channel z reads there, zero where it reads
// padding. Its maximum is the largest value the layer reads, which is
// what the block layout then normalizes by.
func (c *Chip) gatherTaps(a *tensor.Volume, w *tensor.Kernels, taps liveTaps, stride, pad int, out *tensor.Volume) *tensor.Volume {
	g := &c.gather
	growVolume(g, a.Z*taps.count(), out.Y, out.X)
	i := 0
	for z := 0; z < a.Z; z++ {
		for ky := 0; ky < w.Y; ky++ {
			for kx := 0; kx < w.X; kx++ {
				if !taps.live(ky, kx) {
					continue
				}
				for oy := 0; oy < out.Y; oy++ {
					for ox := 0; ox < out.X; ox++ {
						g.Data[i] = a.AtPadded(z, oy*stride+ky-pad, ox*stride+kx-pad)
						i++
					}
				}
			}
		}
	}
	return g
}
