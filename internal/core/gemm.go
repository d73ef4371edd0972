package core

import "albireo/internal/tensor"

// GEMM on the photonic fabric.
//
// The PLCU dot-product path is a general multiply-accumulate engine
// that the conv layers drive with receptive-field windows; GEMM drives
// it with matrix rows instead. An M x K by K x N product maps onto the
// Section III-C block (pointwise) layout:
//
//   - the weight matrix B becomes a bank of N 1x1 kernels of depth K
//     (B transposed), compiled through the weight-program cache so the
//     DAC grids, StuckMZM transfers, and quarantine schedule are baked
//     in exactly as for a pointwise layer;
//   - the activation matrix A becomes a K-channel volume of M "pixels"
//     (A transposed): each PD column carries one output row, each tap
//     one reduction-dimension element, and blocks of Nm elements
//     round-robin over a PLCG's healthy PLCUs;
//   - kernels (output columns) round-robin over the Ng PLCGs through
//     the quarantine-aware assignGroup, so remap and the fault model
//     apply unchanged.
//
// Activations are optical power and cannot be negative, but GEMM
// inputs (hidden states, attention scores) are signed. The chip
// decomposes A = A+ - A- elementwise and runs the block loop twice,
// subtracting the second pass in the digital aggregation unit. A
// non-negative A has an all-zero A-, whose normalization scale is 0;
// that pass early-returns before any PLCG cycle (zero noise draws), so
// a non-negative GEMM is bit-identical to the same product formulated
// as a Pointwise layer - the Conv-equivalence the golden matrix pins.

// maxCachedViews bounds the chip's kernel-bank view cache. Like the
// program cache it is cleared wholesale once full rather than tracking
// liveness.
const maxCachedViews = 64

// viewKey identifies a cached kernel-bank view: the transpose of a
// GEMM weight matrix b (kernel n's channel z carries B[z][n]), or a
// dense conv kernel bank w restricted to its live taps (kernel m's
// channel z*L+l carries live tap l of channel z; see livetaps.go).
// The view's stable *tensor.Kernels identity keeps the weight-program
// cache keys valid across calls with the same source.
type viewKey struct {
	b    *tensor.Matrix
	w    *tensor.Kernels
	taps liveTaps
}

// viewFor returns the chip's m-kernel, z-channel view for key, reusing
// the cached view's backing tensor so programShard sees a stable
// pointer. The view is refilled from its source on every call, which
// costs what a freshness check would: a mutated source then reaches
// the compiled program through the program cache's own bit compare.
func (c *Chip) viewFor(key viewKey, m, z int) *tensor.Kernels {
	v, ok := c.views[key]
	if !ok || v.M != m || v.Z != z {
		v = tensor.NewKernels(m, z, 1, 1)
		if c.views == nil {
			c.views = make(map[viewKey]*tensor.Kernels)
		}
		if len(c.views) >= maxCachedViews {
			clear(c.views)
		}
		c.views[key] = v
	}
	c.tapOffs = key.load(v, c.tapOffs)
	return v
}

// bviewFor returns the chip's kernel-bank view of B.
func (c *Chip) bviewFor(b *tensor.Matrix) *tensor.Kernels {
	return c.viewFor(viewKey{b: b}, b.C, b.R)
}

// load writes the view of key's source into v. A live-tap view
// computes its tap offsets once into offs, the chip's reused scratch,
// which it returns, and copies only those taps of every channel.
func (key viewKey) load(v *tensor.Kernels, offs []int) []int {
	if b := key.b; b != nil {
		for z := 0; z < b.R; z++ {
			for n, x := range b.Data[z*b.C : (z+1)*b.C] {
				v.Data[n*b.R+z] = x
			}
		}
		return offs
	}
	w := key.w
	offs = key.taps.offsets(offs[:0], w.X)
	n, l := w.Y*w.X, len(offs)
	for ch := 0; ch < w.M*w.Z; ch++ {
		src, dst := w.Data[ch*n:(ch+1)*n], v.Data[ch*l:(ch+1)*l]
		for i, o := range offs {
			dst[i] = src[o]
		}
	}
	return offs
}

// growVolume resizes a chip-owned scratch volume in place, growing the
// backing array only when the new shape exceeds its capacity.
func growVolume(v *tensor.Volume, z, y, x int) {
	n := z * y * x
	if cap(v.Data) < n {
		v.Data = make([]float64, n)
	}
	v.Data = v.Data[:n]
	v.Z, v.Y, v.X = z, y, x
}

// stageSigned splits A elementwise into its positive part and negated
// negative part - both optical-power encodable - staged transposed
// into the chip's scratch volumes (channel = reduction index, pixel =
// matrix row).
func (c *Chip) stageSigned(a *tensor.Matrix) {
	k, m := a.C, a.R
	growVolume(&c.posVol, k, 1, m)
	growVolume(&c.negVol, k, 1, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*k : (i+1)*k]
		for z, v := range row {
			p, n := v, 0.0
			if v < 0 {
				p, n = 0, -v
			}
			c.posVol.Data[z*m+i] = p
			c.negVol.Data[z*m+i] = n
		}
	}
}

// GEMM executes the matrix product a (M x K) times b (K x N) through
// the analog pipeline and returns the M x N result in the caller's
// value domain. Weights may be signed (the balanced-photodiode
// differential handles sign); signed activations run as two
// positive-only passes combined digitally. If relu is true, max(0, x)
// is applied during aggregation write-back.
func (c *Chip) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	out := tensor.NewMatrix(a.R, b.C)
	c.GEMMShard(a, b, relu, ShardSpec{}, out)
	return out
}
