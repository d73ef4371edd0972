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
// and each GEMM pass) tile p0/Nd and key b. A row views the
// pre-quantized input where it can and is copied into stage where it
// cannot. Every all-zero row is the chip's shared zero row, which
// PLCU.accumulate skips by identity (see DESIGN.md §11).
type rowPlan struct {
	// rows holds the sets back to back: set s is rows[s*nm:(s+1)*nm].
	rows [][]float64
	// stage backs the copied rows. Like rows it grows to the largest
	// layer seen and is then reused.
	stage []float64
	// perTile is the number of sets per tile.
	perTile int
	nm, nd  int
	zero    []float64
	// qp, chunks, tilesX and stride are the receptive-field geometry
	// fillTile reads.
	qp             *tensor.Volume
	chunks         []tapChunk
	tilesX, stride int
}

// set returns the rows of set (tile, key), with capacity clamped.
func (p *rowPlan) set(tile, key int) [][]float64 {
	s := (tile*p.perTile + key) * p.nm
	return p.rows[s : s+p.nm : s+p.nm]
}

// grow sizes the plan for sets row sets and stage staged floats,
// reusing the backing arrays when they are large enough.
func (p *rowPlan) grow(sets, stage int) {
	if cap(p.rows) < sets*p.nm {
		p.rows = make([][]float64, sets*p.nm)
	}
	if cap(p.stage) < stage {
		p.stage = make([]float64, stage)
	}
	p.rows, p.stage = p.rows[:sets*p.nm], p.stage[:stage]
}

// orZero returns the shared zero row if every activation of row is
// zero (either sign), else row.
func (p *rowPlan) orZero(row []float64) []float64 {
	for _, a := range row {
		if a != 0 {
			return row
		}
	}
	return p.zero
}

// receptive sizes the plan for a receptive-field layer reading the
// zero-padded pre-quantized volume qp (see paddedDims) into out. It
// fills no rows: the caller fills them with fillTile.
func (p *rowPlan) receptive(qp *tensor.Volume, chunks []tapChunk, out *tensor.Volume, stride int) {
	p.qp, p.chunks, p.stride = qp, chunks, stride
	p.tilesX = (out.X + p.nd - 1) / p.nd
	p.perTile = qp.Z * len(chunks)
	sets := out.Y * p.tilesX * p.perTile
	stage := 0
	if stride != 1 {
		stage = sets * p.nm * p.nd
	}
	p.grow(sets, stage)
}

// fillTile fills channel z's sets of output tile (oy, tx): row t of
// chunk ci holds, in column d, the activation at tap t for output
// column tx*Nd+d. A stride-1 row is a view into qp; a strided row is
// gathered into the set's own staging rows, so fills of different
// channels touch disjoint memory and may run on different lanes. Rows
// past the chunk's tap count are the zero row - their compiled weight
// codes can be non-zero under StuckMZM faults or the voltage-domain
// DAC grid, so they must carry zero activations.
//
// hot: per-tile activation gather; must not allocate.
func (p *rowPlan) fillTile(z, oy, tx int) {
	qp, nd, stride := p.qp, p.nd, p.stride
	tile := oy*p.tilesX + tx
	for ci := range p.chunks {
		ch := &p.chunks[ci]
		key := z*len(p.chunks) + ci
		rows := p.set(tile, key)
		for t := range rows {
			if t >= len(ch.ky) {
				rows[t] = p.zero
				continue
			}
			off := (z*qp.Y+oy*stride+ch.ky[t])*qp.X + tx*nd*stride + ch.kx[t]
			if stride == 1 {
				rows[t] = p.orZero(qp.Data[off : off+nd : off+nd])
				continue
			}
			so := ((tile*p.perTile+key)*p.nm + t) * nd
			row := p.stage[so : so+nd : so+nd]
			for d := range row {
				row[d] = qp.Data[off+d*stride]
			}
			rows[t] = p.orZero(row)
		}
	}
}

// block fills the plan of the Section III-C block layout over data,
// channels planes of npix pixels each: tap t of block b carries
// channel b*Nm+t, column d pixel p0+d. A full tile's rows view data; a
// tail tile's rows are staged with zeros past the last pixel; taps
// past the last channel are the zero row. FC is the layout with one
// pixel per element: each row carries its element in column 0, the
// only PD column doing useful work.
func (p *rowPlan) block(data []float64, channels, npix, slotsPer int) {
	nm, nd := p.nm, p.nd
	p.perTile = slotsPer
	tiles := (npix + nd - 1) / nd
	p.grow(tiles*slotsPer, channels*nd)
	for tile := 0; tile < tiles; tile++ {
		p0 := tile * nd
		for b := 0; b < slotsPer; b++ {
			rows := p.set(tile, b)
			for t := range rows {
				z := b*nm + t
				off := z*npix + p0
				switch {
				case z >= channels:
					rows[t] = p.zero
				case p0+nd <= npix:
					rows[t] = p.orZero(data[off : off+nd : off+nd])
				default:
					row := p.stage[z*nd : (z+1)*nd : (z+1)*nd]
					n := copy(row, data[off:(z+1)*npix])
					clear(row[n:])
					rows[t] = p.orZero(row)
				}
			}
		}
	}
}
