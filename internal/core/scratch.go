package core

// convScratch is a PLCG-owned scratch arena for the chip's layer
// loops: the Nd-wide accumulator and step output, the per-slot weight
// vector pointers and the per-slot activation row sets, all allocated
// once at construction and reused for every tile of every layer.
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
	// avals[u] is slot u's row set for this cycle: a flat folded set
	// in the chip's row plan stage. Nothing writes through it.
	avals [][]float64
}

func newConvScratch(cfg Config) convScratch {
	return convScratch{
		acc:     make([]float64, cfg.Nd),
		part:    make([]float64, cfg.Nd),
		weights: make([][]float64, cfg.Nu),
		avals:   make([][]float64, cfg.Nu),
	}
}
