package experiments

import (
	"fmt"
	"math"
	"strings"

	"albireo/internal/nn"
	"albireo/internal/tensor"
)

// GEMMQuantRow is one point of the integer-GEMM sweep: the relative
// RMS error and the top-1 agreement of a b-bit QuantizedMLP head
// against the float reference on the same inputs.
type GEMMQuantRow struct {
	Bits         int
	RelRMS       float64
	AgreementPct float64
}

// GEMMQuantSweep measures the end-to-end integer inference path of an
// MLP head across code widths: weights in signed symmetric codes,
// activations on per-tensor affine grids, int64 accumulation, one
// requantize multiply per layer. The float ExactGEMM forward pass is
// the reference; agreement is argmax match over the batch - the
// serving-mode accuracy currency of the EXPERIMENTS.md sweep.
func GEMMQuantSweep(bits []int, batch int) []GEMMQuantRow {
	m := nn.NewMLP("sweep-head", []int{32, 48, 10}, 11)
	x := tensor.RandomMatrix(batch, 32, 13)
	want := m.Forward(nn.ExactGEMM{}, x)

	rows := make([]GEMMQuantRow, 0, len(bits))
	for _, b := range bits {
		got := nn.QuantizeMLP(m, b).Forward(x)
		rows = append(rows, GEMMQuantRow{
			Bits:         b,
			RelRMS:       relRMS(got.Data, want.Data),
			AgreementPct: 100 * argmaxAgreement(got, want),
		})
	}
	return rows
}

// relRMS returns RMS(got - want) / RMS(want), or the root of the
// summed squared error for an all-zero want.
func relRMS(got, want []float64) float64 {
	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func argmaxAgreement(got, want *tensor.Matrix) float64 {
	match := 0
	for r := 0; r < got.R; r++ {
		if rowArgmax(got, r) == rowArgmax(want, r) {
			match++
		}
	}
	return float64(match) / float64(got.R)
}

func rowArgmax(m *tensor.Matrix, r int) int {
	best, bestV := 0, math.Inf(-1)
	for c := 0; c < m.C; c++ {
		if v := m.At(r, c); v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// FormatGEMMQuant renders the sweep.
func FormatGEMMQuant(rows []GEMMQuantRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Integer-GEMM code width vs float-reference fidelity (MLP head, per-tensor affine activations)")
	fmt.Fprintln(&b, "bits  rel-RMS   top-1 agreement")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d  %7.4f  %7.1f%%\n", r.Bits, r.RelRMS, r.AgreementPct)
	}
	return b.String()
}
