package core

import (
	"fmt"
	"sort"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// Kernel-group sharding: one layer's output channels split across
// several chips in a pool.
//
// The shard boundary is the kernel round-robin itself. A chip with G
// active PLCGs assigns kernel m to group position m % G, so the set of
// kernels a single group position executes is a residue class mod G.
// A ShardSpec names a contiguous window of those positions: the shard
// owns every kernel m with m % Of in [Pos, Pos+Count). Executing only
// an owned residue class on a clone chip (same Config, including Seed,
// and the same quarantine/fault state) drives each PLCG through
// exactly the kernel sequence - and therefore exactly the noise-draw
// sequence - the reference chip's group at the same position sees, so
// the union of shard outputs is bit-identical to the unsharded result.
// A contiguous block split (kernels [0,k) on chip A, [k,M) on chip B)
// would NOT be: chip B's groups would see different kernels than the
// reference chip's, with different noise histories.
//
// The residue-class split is numerically correct for any pool; the
// bit-identity guarantee specifically requires clone chips (the fleet's
// sharded dispatch and the golden tests run pools built with a shared
// seed for exactly this reason).
type ShardSpec struct {
	// Pos is the first owned group position (residue class mod Of).
	Pos int `json:"pos"`
	// Count is the number of owned positions. Zero owns nothing.
	Count int `json:"count"`
	// Of is the shard modulus: the active-group count of the executing
	// chips. Of <= 0 means the whole layer (no sharding).
	Of int `json:"of"`
}

// Whole reports whether the spec covers every kernel (the unsharded
// identity element).
func (s ShardSpec) Whole() bool {
	return s.Of <= 0 || (s.Pos == 0 && s.Count >= s.Of)
}

// Owns reports whether kernel (output channel) m belongs to the shard.
func (s ShardSpec) Owns(m int) bool {
	if s.Whole() {
		return true
	}
	r := m % s.Of
	return r >= s.Pos && r < s.Pos+s.Count
}

// Validate rejects malformed specs. The zero ShardSpec (whole layer)
// is valid, as is a Count of zero (owns nothing).
func (s ShardSpec) Validate() error {
	if s.Of <= 0 {
		if s.Pos != 0 || s.Count != 0 {
			return fmt.Errorf("core: shard %v has window bounds without a modulus", s)
		}
		return nil
	}
	// Count > Of-Pos, not Pos+Count > Of: the sum can overflow.
	if s.Pos < 0 || s.Count < 0 || s.Count > s.Of-s.Pos {
		return fmt.Errorf("core: shard %v window out of range", s)
	}
	return nil
}

// String implements fmt.Stringer ("pos+count/of").
func (s ShardSpec) String() string {
	return fmt.Sprintf("%d+%d/%d", s.Pos, s.Count, s.Of)
}

// normalizeShard collapses every whole-layer spec onto the zero value
// so sharded and unsharded callers share program-cache entries.
func normalizeShard(s ShardSpec) ShardSpec {
	if s.Whole() {
		return ShardSpec{}
	}
	return s
}

// PartitionShards apportions the `of` group positions across workers
// proportionally to their weights (healthy-PLCU counts), using the
// largest-remainder method with a minimum of one position per
// positive-weight worker while positions remain. The result is
// deterministic (remainder ties break toward the lower index) and
// covers [0, of) exactly once with contiguous windows in worker order.
// A zero- or negative-weight worker gets an empty window; if every
// weight is non-positive the positions round-robin evenly instead.
func PartitionShards(of int, weights []int64) []ShardSpec {
	out := make([]ShardSpec, len(weights))
	if of <= 0 || len(weights) == 0 {
		return out
	}
	counts := apportion(of, weights)
	pos := 0
	for i, n := range counts {
		out[i] = ShardSpec{Pos: pos, Count: n, Of: of}
		pos += n
	}
	return out
}

// apportion is PartitionShards' integer allocation: largest-remainder
// proportional shares with a min-1 floor for positive-weight workers.
func apportion(of int, weights []int64) []int {
	n := len(weights)
	counts := make([]int, n)
	var total int64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		for p := 0; p < of; p++ {
			counts[p%n]++
		}
		return counts
	}
	assigned := 0
	rems := make([]int64, n)
	order := make([]int, n)
	for i, w := range weights {
		order[i] = i
		if w <= 0 {
			continue
		}
		q := int64(of) * w
		counts[i] = int(q / total)
		rems[i] = q % total
		assigned += counts[i]
	}
	// Hand leftover positions to the largest remainders; SliceStable
	// keeps equal remainders in index order.
	sort.SliceStable(order, func(a, b int) bool { return rems[order[a]] > rems[order[b]] })
	for k := 0; assigned < of; k = (k + 1) % n {
		if i := order[k]; weights[i] > 0 {
			counts[i]++
			assigned++
		}
	}
	// Min-1 floor: a degraded worker gets fewer positions, not zero.
	// Steal from the best-provisioned donor (ties toward lower index)
	// until every positive-weight worker holds a position or no donor
	// can spare one.
	for {
		zi := -1
		for i := range counts {
			if counts[i] == 0 && weights[i] > 0 {
				zi = i
				break
			}
		}
		if zi < 0 {
			return counts
		}
		di := -1
		for i := range counts {
			if counts[i] >= 2 && (di < 0 || counts[i] > counts[di]) {
				di = i
			}
		}
		if di < 0 {
			return counts
		}
		counts[di]--
		counts[zi]++
	}
}

// ActiveGroups returns the number of PLCGs with schedulable capacity -
// the kernel round-robin width, and therefore the shard modulus Of a
// bit-identical residue-class split of this chip must use.
func (c *Chip) ActiveGroups() int { return len(c.active) }

// ConvShard executes the shard's kernel slice of a dense convolution,
// writing only the owned output planes of the caller-allocated,
// pre-zeroed out volume. Shards of one layer write disjoint planes, so
// clone chips may fill the same volume concurrently (the fleet's merge
// is a barrier, not a copy). Weight programs are compiled per shard
// through the weight-program cache - an owned slice compiles only its
// own kernels' slots. The live-tap rule picks the mapping exactly as
// for Conv (see denseConv). Depthwise and grouped convolutions do not
// shard (their channel semantics are not a kernel round-robin) and
// panic.
func (c *Chip) ConvShard(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool, shard ShardSpec, out *tensor.Volume) {
	if cfg.Depthwise || (cfg.Groups != 0 && cfg.Groups != 1) {
		panic("core: ConvShard shards dense convolutions only") //lint:ignore exit-hygiene shard eligibility invariant; fleet checks before fan-out
	}
	if err := shard.Validate(); err != nil {
		panic(err.Error()) //lint:ignore exit-hygiene malformed shard spec; caller bug
	}
	if w.Z != a.Z {
		panic(fmt.Sprintf("core: kernel depth %d != input channels %d", w.Z, a.Z)) //lint:ignore exit-hygiene kernel/input shape invariant; caller bug
	}
	stride := convStride(cfg)
	by := tensor.ConvOutputDim(a.Y, w.Y, cfg.Pad, stride)
	bx := tensor.ConvOutputDim(a.X, w.X, cfg.Pad, stride)
	if out.Z != w.M || out.Y != by || out.X != bx {
		panic(fmt.Sprintf("core: shard output %dx%dx%d != layer output %dx%dx%d", out.Z, out.Y, out.X, w.M, by, bx)) //lint:ignore exit-hygiene merge buffer shape invariant; caller bug
	}
	c.denseConv(a, w, cfg, relu, shard, out)
}

// blockLayer runs w's kernels the shard owns on the Section III-C
// block layout (pointwise, FC, a GEMM pass, a live-tap conv): each tap
// carries one flattened input element, each PD column one pixel, and
// blocks of Nm elements round-robin over a group's healthy units. That
// is the receptive-field layout of an Nm x 1 kernel over data viewed
// as ceil(n/Nm) channels of Nm rows x npix columns (n = w.Z*w.Y*w.X,
// data holding n planes of npix pixels): tap t of block b reads
// element b*Nm+t and column d pixel p0+d, so slot (m, b) lands on unit
// avail[b mod capacity], plan key b and tile p0/Nd in both. The views
// are headers over the caller's slices; nothing is reshaped or
// copied. Kernel m's npix outputs land at out[m*npix:]. FC is the
// layout with one pixel per element: neuron m's sum lands at out[m].
// It returns the layer it ran (see run).
func (c *Chip) blockLayer(sp *obs.Span, data []float64, npix int, w *tensor.Kernels, relu bool, shard ShardSpec, out []float64) layer {
	lay := c.cfg.blockView(w.Z * w.Y * w.X)
	return c.run(sp, layer{
		a:   tensor.Volume{Z: lay.z, Y: lay.ky, X: npix, Data: data},
		out: tensor.Volume{Z: w.M, Y: 1, X: npix, Data: out},
		w:   w, lay: lay, stride: 1, relu: relu,
	}, shard)
}

// blockView is the block layout of n-element kernels: ceil(n/Nm)
// channels of an Nm x 1 footprint.
func (c Config) blockView(n int) layout {
	return layout{z: (n + c.Nm - 1) / c.Nm, ky: c.Nm, kx: 1}
}

// FullyConnectedShard executes the shard's neuron slice of an FC
// layer, writing only the owned elements of the caller-allocated,
// pre-zeroed out slice.
func (c *Chip) FullyConnectedShard(a *tensor.Volume, w *tensor.Kernels, relu bool, shard ShardSpec, out []float64) {
	if w.Z != a.Z || w.Y != a.Y || w.X != a.X {
		panic("core: FC kernel shape must match the input volume") //lint:ignore exit-hygiene FC kernel shape invariant; caller bug
	}
	if err := shard.Validate(); err != nil {
		panic(err.Error()) //lint:ignore exit-hygiene malformed shard spec; caller bug
	}
	if len(out) != w.M {
		panic(fmt.Sprintf("core: shard output length %d != %d neurons", len(out), w.M)) //lint:ignore exit-hygiene merge buffer shape invariant; caller bug
	}
	sp := c.ins.beginLayer("fc", w.M, w.Z, w.Y, w.X)
	defer sp.End()
	c.blockLayer(sp, a.Data, 1, w, relu, shard, out)
}

// GEMMShard executes the shard's output-column slice of a matrix
// product (columns round-robin over PLCGs exactly as conv kernels do),
// writing only the owned columns of the caller-allocated, pre-zeroed
// out matrix.
func (c *Chip) GEMMShard(a, b *tensor.Matrix, relu bool, shard ShardSpec, out *tensor.Matrix) {
	if a.C != b.R {
		panic(fmt.Sprintf("core: gemm inner dims %d != %d", a.C, b.R)) //lint:ignore exit-hygiene matmul shape invariant; caller bug
	}
	if err := shard.Validate(); err != nil {
		panic(err.Error()) //lint:ignore exit-hygiene malformed shard spec; caller bug
	}
	mRows, n := a.R, b.C
	if out.R != mRows || out.C != n {
		panic(fmt.Sprintf("core: shard output %dx%d != product %dx%d", out.R, out.C, mRows, n)) //lint:ignore exit-hygiene merge buffer shape invariant; caller bug
	}
	w := c.bviewFor(b)
	if cap(c.gemmAcc) < n*mRows {
		c.gemmAcc = make([]float64, n*mRows)
	}
	dst := c.gemmAcc[:n*mRows]
	for i := range dst {
		dst[i] = 0
	}

	c.stageSigned(a)
	sp := c.ins.beginLayer("gemm", n, a.C, 1, 1)
	defer sp.End()
	// The positive pass assigns dst, so a skipped negative pass (an
	// all-zero A-) leaves pointwise-identical bits. The negative pass
	// is the same layer over A-, subtracting in the digital aggregation
	// unit, with the positive pass's program.
	l := c.blockLayer(sp, c.posVol.Data, mRows, w, false, shard, dst)
	l.a.Data, l.subtract = c.negVol.Data, true
	c.run(sp, l, shard)
	// Digital write-back: dst holds the product transposed (one PLCG
	// kernel per output column); untranspose into row-major and clamp.
	for j := 0; j < n; j++ {
		if !shard.Owns(j) {
			continue
		}
		col := dst[j*mRows : (j+1)*mRows]
		for i, v := range col {
			if relu && v < 0 {
				v = 0
			}
			out.Data[i*n+j] = v
		}
	}
}
