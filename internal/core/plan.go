package core

import "albireo/internal/tensor"

// rowPlan is one layer's activation rows, the host-side mirror of
// Albireo's input broadcast (Figure 6a): every PLCG sees the same
// signals, so the rows depend on the input and the tile, never on the
// kernel. The chip builds them once per layer, before the kernels fan
// out, and the kernel bodies only point their units at its row sets.
//
// A row set is the Nm tap rows one PLCU reads in one step, indexed by
// (tile, key) and never by kernel or group, so one plan serves healthy
// and quarantined groups alike: receptive-field layers use tile
// oy*tilesX+tx and key z*nchunks+ci, the block layout (pointwise, FC
// and each GEMM pass) tile p0/Nd and key b. Every row is stored with
// its rings' crosstalk already folded in (see foldRow), so
// PLCU.accumulate applies no crosstalk of its own (see DESIGN.md §11,
// Crosstalk at the broadcast).
type rowPlan struct {
	// stage holds the sets back to back, each Nm rows of Nd folded
	// activations: set s is stage[s*nm*nd:(s+1)*nm*nd]. It grows to
	// the largest layer seen and is then reused.
	stage []float64
	// raw holds one scratch row per block for a tail tile's raw
	// activations.
	raw []float64
	// coef is the chip's crosstalk table (see crosstalkTable); nil when
	// crosstalk is disabled, which makes the fold a plain copy.
	coef []float64
	// perTile is the number of sets per tile.
	perTile int
	nm, nd  int
	// qp, chunks, tilesX and stride are the receptive-field geometry
	// fillTile reads.
	qp             *tensor.Volume
	chunks         []tapChunk
	tilesX, stride int
	// data, channels and npix are the block geometry fillBlock reads.
	data           []float64
	channels, npix int
}

// newRowPlan returns an empty plan for cfg's geometry, folding with
// the same crosstalk table cfg's PLCUs hold.
func newRowPlan(cfg Config) rowPlan {
	p := rowPlan{nm: cfg.Nm, nd: cfg.Nd}
	if !cfg.DisableCrosstalk {
		p.coef = crosstalkTable(cfg)
	}
	return p
}

// set returns the flat rows of set (tile, key), with capacity clamped.
func (p *rowPlan) set(tile, key int) []float64 {
	n := p.nm * p.nd
	s := (tile*p.perTile + key) * n
	return p.stage[s : s+n : s+n]
}

// grow sizes the stage for sets row sets, reusing the backing array
// when it is large enough.
func (p *rowPlan) grow(sets int) {
	n := sets * p.nm * p.nd
	if cap(p.stage) < n {
		p.stage = make([]float64, n)
	}
	p.stage = p.stage[:n]
}

// tapCoef returns tap t's Nd x Nd block of the crosstalk table, or nil
// when crosstalk is disabled.
func (p *rowPlan) tapCoef(t int) []float64 {
	if p.coef == nil {
		return nil
	}
	n := p.nd * p.nd
	return p.coef[t*n : (t+1)*n]
}

// foldRow writes one tap's folded row into dst from the raw
// activations a(d) = src[d*stride], d < len(dst):
//
//	dst[d] = a(d) + sum over dp != d, ascending, of coef[d*Nd+dp]*a(dp)
//
// where coef is the tap's block of the crosstalk table. The sum runs
// over every column, so dead columns still leak into live ones. A nil
// coef copies the raw activations.
//
// hot: per-row crosstalk fold; must not allocate.
func foldRow(dst, src []float64, stride int, coef []float64) {
	nd := len(dst)
	if coef == nil {
		for d := range dst {
			dst[d] = src[d*stride]
		}
		return
	}
	for d := range dst {
		c := coef[d*nd : (d+1)*nd]
		x := src[d*stride]
		for dp := 0; dp < d; dp++ {
			x += c[dp] * src[dp*stride]
		}
		for dp := d + 1; dp < nd; dp++ {
			x += c[dp] * src[dp*stride]
		}
		dst[d] = x
	}
}

// receptive sizes the plan for a receptive-field layer reading the
// zero-padded pre-quantized volume qp (see paddedDims) into out. It
// fills no rows: the caller fills them with fillTile.
func (p *rowPlan) receptive(qp *tensor.Volume, chunks []tapChunk, out *tensor.Volume, stride int) {
	p.qp, p.chunks, p.stride = qp, chunks, stride
	p.tilesX = (out.X + p.nd - 1) / p.nd
	p.perTile = qp.Z * len(chunks)
	p.grow(out.Y * p.tilesX * p.perTile)
}

// fillTile fills channel z's sets of output tile (oy, tx): row t of
// chunk ci is the fold of the activations at tap t for output columns
// tx*Nd+d. Fills of different channels write disjoint sets, so they
// may run on different lanes. Rows past the chunk's tap count are
// zero - their compiled weight codes can be non-zero under StuckMZM
// faults or the voltage-domain DAC grid, so they must carry zero
// activations.
//
// hot: per-tile activation gather; must not allocate.
func (p *rowPlan) fillTile(z, oy, tx int) {
	qp, nd, stride := p.qp, p.nd, p.stride
	tile := oy*p.tilesX + tx
	for ci := range p.chunks {
		ch := &p.chunks[ci]
		set := p.set(tile, z*len(p.chunks)+ci)
		for t := 0; t < p.nm; t++ {
			row := set[t*nd : (t+1)*nd]
			if t >= len(ch.ky) {
				clear(row)
				continue
			}
			off := (z*qp.Y+oy*stride+ch.ky[t])*qp.X + tx*nd*stride + ch.kx[t]
			foldRow(row, qp.Data[off:], stride, p.tapCoef(t))
		}
	}
}

// block sizes the plan for the Section III-C block layout over data,
// channels planes of npix pixels each: tap t of block b carries
// channel b*Nm+t, column d pixel p0+d. It fills no rows: the caller
// fills each block with fillBlock. FC is the layout with one pixel per
// element: each row carries its element in column 0, the only PD
// column doing useful work.
func (p *rowPlan) block(data []float64, channels, npix, slotsPer int) {
	p.data, p.channels, p.npix, p.perTile = data, channels, npix, slotsPer
	p.grow((npix + p.nd - 1) / p.nd * slotsPer)
	if cap(p.raw) < slotsPer*p.nd {
		p.raw = make([]float64, slotsPer*p.nd)
	}
	p.raw = p.raw[:slotsPer*p.nd]
}

// fillBlock fills block b's set of every tile. A tail tile's raw rows
// are zero past the last pixel; taps past the last channel are zero.
// Fills of different blocks write disjoint sets and raw rows, so they
// may run on different lanes.
//
// hot: per-block activation gather; must not allocate.
func (p *rowPlan) fillBlock(b int) {
	nm, nd, npix := p.nm, p.nd, p.npix
	raw := p.raw[b*nd : (b+1)*nd]
	for p0 := 0; p0 < npix; p0 += nd {
		set := p.set(p0/nd, b)
		for t := 0; t < nm; t++ {
			row := set[t*nd : (t+1)*nd]
			z := b*nm + t
			off := z*npix + p0
			switch {
			case z >= p.channels:
				clear(row)
			case p0+nd <= npix:
				foldRow(row, p.data[off:off+nd], 1, p.tapCoef(t))
			default:
				n := copy(raw, p.data[off:(z+1)*npix])
				clear(raw[n:])
				foldRow(row, raw, 1, p.tapCoef(t))
			}
		}
	}
}

// receptiveFill and blockFill are the lane bodies that fill a layer's
// plan before its kernels fan out (see Chip.fillPlan): index z
// quantizes and fills channel z of a dense receptive-field layer,
// index b fills block b.
type (
	receptiveFill convLayer
	blockFill     rowPlan
)

// kernel quantizes channel z's plane and fills its sets of every tile.
func (f *receptiveFill) kernel(z int) {
	c := f.c
	c.quantizePlane(f.a, z, f.pad, f.aScale)
	for oy := 0; oy < f.out.Y; oy++ {
		for tx := 0; tx < c.plan.tilesX; tx++ {
			c.plan.fillTile(z, oy, tx)
		}
	}
}

// kernel fills block b.
func (f *blockFill) kernel(b int) { (*rowPlan)(f).fillBlock(b) }
