package core

import (
	"fmt"
	"math"
	"testing"

	"albireo/internal/tensor"
)

// refGather keeps the per-kernel row gathers the row plan replaced,
// verbatim: the receptive-field window, the block layout's full-tile
// view and tail-tile copy, and FC's one-element row. Every planned set
// must equal them folded (foldRow with the chip's crosstalk table) bit
// for bit.
type refGather struct {
	avals [][][]float64
	stage [][][]float64
}

func newRefGather(cfg Config) *refGather {
	sc := &refGather{
		avals: make([][][]float64, cfg.Nu),
		stage: make([][][]float64, cfg.Nu),
	}
	rowData := make([]float64, cfg.Nu*cfg.Nm*cfg.Nd)
	for u := 0; u < cfg.Nu; u++ {
		rows := make([][]float64, cfg.Nm)
		for t := 0; t < cfg.Nm; t++ {
			off := (u*cfg.Nm + t) * cfg.Nd
			rows[t] = rowData[off : off+cfg.Nd : off+cfg.Nd]
		}
		sc.stage[u] = rows
		sc.avals[u] = make([][]float64, cfg.Nm)
	}
	return sc
}

// tapChunk and refChunks keep the explicit tap chunking the layer loop
// replaced with index arithmetic, verbatim: one pass worth of kernel
// taps, at most Nm positions, row-major.
type tapChunk struct {
	ky, kx []int
}

func refChunks(nm, ky, kx int) []tapChunk {
	var chunks []tapChunk
	cur := tapChunk{}
	for y := 0; y < ky; y++ {
		for x := 0; x < kx; x++ {
			cur.ky = append(cur.ky, y)
			cur.kx = append(cur.kx, x)
			if len(cur.ky) == nm {
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

func (sc *refGather) window(u int, qp *tensor.Volume, z, oy, ox0, stride int, ch *tapChunk, zero []float64) {
	rows, nd := sc.avals[u], len(zero)
	for t := range rows {
		if t >= len(ch.ky) {
			rows[t] = zero
			continue
		}
		off := (z*qp.Y+oy*stride+ch.ky[t])*qp.X + ox0*stride + ch.kx[t]
		if stride == 1 {
			rows[t] = qp.Data[off : off+nd : off+nd]
			continue
		}
		row := sc.stage[u][t]
		for d := range row {
			row[d] = qp.Data[off+d*stride]
		}
		rows[t] = row
	}
}

// block is the row gather of the old blockLayer.kernel for slot u,
// block b of the tile at pixel p0; live is the tile's live width.
func (sc *refGather) block(u int, qa *tensor.Volume, npix, p0, b, live, nm, nd int, zero []float64) {
	rows := sc.avals[u]
	for t := range rows {
		z := b*nm + t
		off := z*npix + p0
		switch {
		case z >= qa.Z:
			rows[t] = zero
		case live == nd:
			rows[t] = qa.Data[off : off+nd : off+nd]
		default:
			row := sc.stage[u][t]
			n := copy(row, qa.Data[off:(z+1)*npix])
			clear(row[n:])
			rows[t] = row
		}
	}
}

// fc is the row gather of the old fcLayer.kernel for slot u, block b.
func (sc *refGather) fc(u int, qa *tensor.Volume, b, nm int, zero []float64) {
	n := qa.Z * qa.Y * qa.X
	rows := sc.avals[u]
	for t := range rows {
		e := b*nm + t
		if e >= n {
			rows[t] = zero
			continue
		}
		row := sc.stage[u][t]
		clear(row)
		row[0] = qa.Data[e]
		rows[t] = row
	}
}

// checkSet compares one planned flat set with its reference raw rows
// folded tap by tap, every bit equal.
func checkSet(t *testing.T, c *Chip, what string, got []float64, raw [][]float64) {
	t.Helper()
	nd := c.cfg.Nd
	if len(got) != len(raw)*nd {
		t.Fatalf("%s: %d activations, want %d rows of %d", what, len(got), len(raw), nd)
	}
	want := make([]float64, nd)
	for r, row := range raw {
		foldRow(want, row, 1, c.plan.tapCoef(r))
		for d, v := range want {
			if g := got[r*nd+d]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s row %d column %d: %g, want %g", what, r, d, g, v)
			}
		}
	}
}

// planInput is a random activation volume with one all-zero channel
// and some negative-zero entries.
func planInput(z, y, x int, seed int64) *tensor.Volume {
	a := tensor.RandomVolume(z, y, x, seed)
	for i := range a.Data {
		if i%7 == 3 {
			a.Data[i] = math.Copysign(0, -1)
		}
	}
	clear(a.Data[(z/2)*y*x : (z/2+1)*y*x])
	return a
}

// TestRowPlanMatchesGathers runs every mapping on the lane path and
// checks the flat sets it leaves behind against the verbatim
// per-kernel gathers followed by the fold, over the chip's
// pre-quantized input (receptive-field layers) or the layer's unpadded
// DAC codes (block layouts): dense conv at stride 1 and 2, pad 0 and
// 1, 3x3 and 5x5 (two tap chunks); depthwise at stride 1 and 2;
// pointwise with full and tail tiles; FC; and both GEMM passes. The
// crosstalk-free chip's sets must be the raw gathers themselves.
func TestRowPlanMatchesGathers(t *testing.T) {
	for _, xtalk := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.DisableCrosstalk = !xtalk
		t.Run(fmt.Sprintf("crosstalk=%v", xtalk), func(t *testing.T) { checkRowPlan(t, cfg) })
	}
}

func checkRowPlan(t *testing.T, cfg Config) {
	nm, nd := cfg.Nm, cfg.Nd
	zero := make([]float64, nd)
	receptive := func(name string, a *tensor.Volume, w *tensor.Kernels, cc tensor.ConvConfig) {
		c := NewChip(cfg)
		out := manyLanes(func() *tensor.Volume { return c.Conv(a, w, cc, true) })
		stride := convStride(cc)
		chunks := refChunks(nm, w.Y, w.X)
		ref := newRefGather(cfg)
		for oy := 0; oy < out.Y; oy++ {
			for tx := 0; tx*nd < out.X; tx++ {
				for z := 0; z < a.Z; z++ {
					for ci := range chunks {
						ref.window(0, &c.qaVol, z, oy, tx*nd, stride, &chunks[ci], zero)
						what := fmt.Sprintf("%s oy=%d tx=%d z=%d chunk=%d", name, oy, tx, z, ci)
						checkSet(t, c, what, c.plan.set(oy*c.plan.tilesX+tx, z*len(chunks)+ci), ref.avals[0])
					}
				}
			}
		}
	}
	for _, k := range []int{3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				a := planInput(4, 11, 12, int64(800+k+stride+pad))
				w := tensor.RandomKernels(6, 4, k, k, 801)
				receptive(fmt.Sprintf("conv%dx%d-s%dp%d", k, k, stride, pad), a, w, tensor.ConvConfig{Stride: stride, Pad: pad})
			}
		}
	}
	for _, stride := range []int{1, 2} {
		a := planInput(5, 9, 13, 811)
		w := tensor.RandomKernels(5, 1, 3, 3, 812)
		receptive(fmt.Sprintf("depthwise-s%d", stride), a, w, tensor.ConvConfig{Stride: stride, Pad: 1, Depthwise: true})
	}

	// quantized is a layer input's unpadded DAC codes, which the block
	// and FC reference gathers read.
	quantized := func(c *Chip, a *tensor.Volume) *tensor.Volume {
		q, scale := tensor.NewVolume(a.Z, a.Y, a.X), a.MaxAbs()
		for i, v := range a.Data {
			q.Data[i] = c.aq.Quantize(v / scale)
		}
		return q
	}
	blockLayout := func(name string, c *Chip, qa *tensor.Volume, npix, slotsPer int) {
		ref := newRefGather(cfg)
		for p0 := 0; p0 < npix; p0 += nd {
			for b := 0; b < slotsPer; b++ {
				ref.block(0, qa, npix, p0, b, min(nd, npix-p0), nm, nd, zero)
				checkSet(t, c, fmt.Sprintf("%s p0=%d block=%d", name, p0, b), c.plan.set(p0/nd, b), ref.avals[0])
			}
		}
	}
	for _, hw := range []int{5, 7} { // 25 and 49 pixels: npix%Nd == 0 and != 0
		a := planInput(20, hw, hw, int64(820+hw))
		w := tensor.RandomKernels(7, 20, 1, 1, 821)
		c := NewChip(cfg)
		manyLanes(func() *tensor.Volume { return c.Pointwise(a, w, true) })
		blockLayout(fmt.Sprintf("pointwise-%dpx", hw*hw), c, quantized(c, a), hw*hw, (20+nm-1)/nm)
	}

	// FC runs after a pointwise layer on the same chip, whose 4-pixel
	// tail tiles leave wider padded planes and their sets behind.
	fcA := planInput(4, 5, 5, 831)
	c := NewChip(cfg)
	c.Pointwise(planInput(20, 7, 7, 833), tensor.RandomKernels(3, 20, 1, 1, 834), true)
	manyLanes(func() []float64 { return c.FullyConnected(fcA, tensor.RandomKernels(6, 4, 5, 5, 832), true) })
	ref := newRefGather(cfg)
	for b := 0; b < (100+nm-1)/nm; b++ {
		ref.fc(0, quantized(c, fcA), b, nm, zero)
		checkSet(t, c, fmt.Sprintf("fc block=%d", b), c.plan.set(0, b), ref.avals[0])
	}

	// A non-negative A runs only the positive pass; a signed A leaves
	// the negative pass's plan behind.
	signed := tensor.RandomMatrix(11, 23, 841)
	for i := 0; i < signed.R; i++ {
		signed.Data[i*signed.C+5] = 0 // an all-zero channel
	}
	pos := tensor.NewMatrix(signed.R, signed.C)
	for i, v := range signed.Data {
		pos.Data[i] = math.Abs(v)
	}
	b := tensor.RandomMatrix(23, 13, 842)
	for _, tc := range []struct {
		name string
		a    *tensor.Matrix
	}{{"gemm-positive-pass", pos}, {"gemm-negative-pass", signed}} {
		c := NewChip(cfg)
		manyLanes(func() *tensor.Matrix { return c.GEMM(tc.a, b, false) })
		staged := &c.negVol
		if staged.MaxAbs() == 0 {
			staged = &c.posVol
		}
		blockLayout(tc.name, c, quantized(c, staged), tc.a.R, (tc.a.C+nm-1)/nm)
	}
}
