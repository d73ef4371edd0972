package core

import "albireo/internal/tensor"

// convScratch is a PLCG-owned scratch arena for the chip's layer
// loops: the Nd-wide accumulator and step output, the per-slot weight
// vector pointers, the per-slot activation row views, and the staging
// rows behind the views that cannot point into the input directly, all
// allocated once at construction and reused for every tile of every
// layer. The staging rows share one backing array for locality.
//
// The arena belongs to exactly one PLCG because the kernel lanes
// partition kernels by owning group - one lane per PLCG at a time - so
// group-owned scratch needs no locking.
type convScratch struct {
	// acc accumulates partial dot products across channel groups and
	// tap chunks for the current Nd-wide output tile.
	acc []float64
	// part receives one stepPrequantized result.
	part []float64
	// weights[u] points at the compiled weight-program slot (or staged
	// weight vector) driving healthy unit slot u this cycle.
	weights [][]float64
	// avals[u][t] is slot u's tap-t activation row for this cycle: a
	// read-only view into the pre-quantized input, the chip's zero row,
	// or stage[u][t]. Nothing writes through it.
	avals [][][]float64
	// stage[u][t] holds the rows that must be copied: strided
	// receptive-field taps, tail tiles of the block layout, and FC's
	// one-column rows.
	stage [][][]float64
}

func newConvScratch(cfg Config) convScratch {
	sc := convScratch{
		acc:     make([]float64, cfg.Nd),
		part:    make([]float64, cfg.Nd),
		weights: make([][]float64, cfg.Nu),
		avals:   make([][][]float64, cfg.Nu),
		stage:   make([][][]float64, cfg.Nu),
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

// window points slot u's activation rows at the receptive field of
// one kernel channel: row t column d is the activation at tap t of
// chunk ch for output column ox0+d, read from channel z of the
// zero-padded pre-quantized volume qp (see paddedDims), so no bounds
// or padding checks are needed. A stride-1 row is a view into qp; a
// strided row is gathered into the slot's stage row. Rows past the
// chunk's tap count view the zero row - their compiled weight codes
// can be non-zero under StuckMZM faults or the voltage-domain DAC
// grid, so they must carry zero activations.
//
// hot: per-tile activation gather; must not allocate.
func (sc *convScratch) window(u int, qp *tensor.Volume, z, oy, ox0, stride int, ch *tapChunk, zero []float64) {
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
