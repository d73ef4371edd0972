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
// and quarantined groups alike: tile oy*tilesX+tx and key
// z*nchunks+ci. The block layout (pointwise, FC and each GEMM pass) is
// the same plan over its Nm-row view, where that is tile p0/Nd and key
// b (see Chip.blockLayer). Every row is stored with
// its rings' crosstalk already folded in (see foldRow), so
// PLCU.accumulate applies no crosstalk of its own (see DESIGN.md §11,
// Crosstalk at the broadcast).
type rowPlan struct {
	// stage holds the sets back to back, each Nm rows of Nd folded
	// activations: set s is stage[s*nm*nd:(s+1)*nm*nd]. It grows to
	// the largest layer seen and is then reused.
	stage []float64
	// coef is the chip's crosstalk table (see crosstalkTable); nil when
	// crosstalk is disabled, which makes the fold a plain copy.
	coef []float64
	// perTile is the number of sets per tile.
	perTile int
	nm, nd  int
	// qp, lay, nchunks, tilesX and stride are the layer geometry
	// fillRow reads.
	qp                      *tensor.Volume
	lay                     layout
	nchunks, tilesX, stride int
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
			x += float64(c[dp] * src[dp*stride])
		}
		for dp := d + 1; dp < nd; dp++ {
			x += float64(c[dp] * src[dp*stride])
		}
		dst[d] = x
	}
}

// receptive sizes the plan for a layer of layout lay reading the
// zero-padded pre-quantized volume qp (see paddedDims) into out. It
// fills no rows: the caller fills them with fillRow.
func (p *rowPlan) receptive(qp *tensor.Volume, lay layout, out *tensor.Volume, stride int) {
	p.qp, p.lay, p.stride = qp, lay, stride
	p.nchunks = lay.chunks(p.nm)
	p.tilesX = (out.X + p.nd - 1) / p.nd
	p.perTile = qp.Z * p.nchunks
	p.grow(out.Y * p.tilesX * p.perTile)
}

// fillRow fills channel z's sets of every tile of output row oy: row t
// of chunk ci of tile tx is the fold of the activations at tap ci*Nm+t
// (row-major in the footprint) for output columns tx*Nd+d. Fills of
// different channels write disjoint sets, so they may run on
// different lanes. Rows past the footprint are zero - their compiled
// weight codes can be non-zero under StuckMZM faults or the
// voltage-domain DAC grid, so they must carry zero activations.
//
// hot: per-row activation gather; must not allocate.
func (p *rowPlan) fillRow(z, oy int) {
	qp, nd, stride, kx := p.qp, p.nd, p.stride, p.lay.kx
	taps := p.lay.ky * kx
	for tx := 0; tx < p.tilesX; tx++ {
		base := (z*qp.Y+oy*stride)*qp.X + tx*nd*stride
		// (y, x) is tap ci*Nm+t of the footprint.
		y, x := 0, 0
		for ci := 0; ci < p.nchunks; ci++ {
			set := p.set(oy*p.tilesX+tx, z*p.nchunks+ci)
			for t := 0; t < p.nm; t++ {
				row := set[t*nd : (t+1)*nd]
				if ci*p.nm+t >= taps {
					clear(row)
					continue
				}
				foldRow(row, qp.Data[base+y*qp.X+x:], stride, p.tapCoef(t))
				if x++; x == kx {
					x, y = 0, y+1
				}
			}
		}
	}
}

// receptiveFill is the lane body that fills a layer's plan before its
// kernels fan out (see Chip.fillPlan): index z quantizes channel z's
// plane and fills its sets of every tile.
type receptiveFill layer

// kernel quantizes channel z's plane and fills its sets of every tile.
func (f *receptiveFill) kernel(z int) {
	c := f.c
	c.quantizePlane(&f.a, z, f.pad, f.aScale)
	for oy := 0; oy < f.out.Y; oy++ {
		c.plan.fillRow(z, oy)
	}
}
