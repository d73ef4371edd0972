package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major 2-D tensor: element (r, c) lives at
// Data[r*C+c]. It is the activation/weight substrate of the GEMM
// workloads (MLP heads, LSTM cells, attention blocks) the photonic
// fabric serves beyond convolution; the exact reference for the
// analog GEMM path is MatMul below.
type Matrix struct {
	R, C int
	Data []float64 // len R*C, column fastest
}

// NewMatrix allocates a zeroed R x C matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("tensor: non-positive matrix shape %dx%d", r, c)) //lint:ignore exit-hygiene matrix shape invariant; caller bug
	}
	return &Matrix{R: r, C: c, Data: make([]float64, r*c)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.C+c] }

// Set writes element (r, c).
//
//lint:ignore unreachable test fixture: core's chip and live-tap tests build operands with it
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.C+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	v := 0.0
	for _, x := range m.Data {
		if a := math.Abs(x); a > v {
			v = a
		}
	}
	return v
}

// String implements fmt.Stringer.
func (m *Matrix) String() string { return fmt.Sprintf("matrix{%dx%d}", m.R, m.C) }

// MatMul computes the exact product a(M x K) * b(K x N) in float64 -
// the digital reference the analog GEMM path is validated against.
func MatMul(a, b *Matrix) *Matrix {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: matmul inner dims %d != %d", a.C, b.R)) //lint:ignore exit-hygiene matmul shape invariant; caller bug
	}
	out := NewMatrix(a.R, b.C)
	for i := 0; i < a.R; i++ {
		arow := a.Data[i*a.C : (i+1)*a.C]
		orow := out.Data[i*out.C : (i+1)*out.C]
		for k, av := range arow {
			brow := b.Data[k*b.C : (k+1)*b.C]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Transpose returns a new matrix with rows and columns swapped.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.C, m.R)
	for r := 0; r < m.R; r++ {
		for c := 0; c < m.C; c++ {
			out.Data[c*m.R+r] = m.Data[r*m.C+c]
		}
	}
	return out
}

// AddBias adds bias[c] to every element of column c, in place, and
// returns the matrix. This is the digital aggregation-unit bias add of
// the GEMM workloads.
func (m *Matrix) AddBias(bias []float64) *Matrix {
	if len(bias) != m.C {
		panic(fmt.Sprintf("tensor: bias length %d != columns %d", len(bias), m.C)) //lint:ignore exit-hygiene bias shape invariant; caller bug
	}
	for r := 0; r < m.R; r++ {
		row := m.Data[r*m.C : (r+1)*m.C]
		for c := range row {
			row[c] += bias[c]
		}
	}
	return m
}

// ReLUMat applies max(0, x) in place and returns the matrix.
func ReLUMat(m *Matrix) *Matrix {
	for i, x := range m.Data {
		if x < 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// SoftmaxRows applies a numerically-stable softmax to each row in
// place and returns the matrix (the digital softmax between the QK^T
// and AV GEMMs of an attention block).
func SoftmaxRows(m *Matrix) *Matrix {
	for r := 0; r < m.R; r++ {
		row := m.Data[r*m.C : (r+1)*m.C]
		max := math.Inf(-1)
		for _, x := range row {
			if x > max {
				max = x
			}
		}
		var sum float64
		for c, x := range row {
			e := math.Exp(x - max)
			row[c] = e
			sum += e
		}
		for c := range row {
			row[c] /= sum
		}
	}
	return m
}

// SigmoidMat applies 1/(1+e^-x) in place and returns the matrix.
func SigmoidMat(m *Matrix) *Matrix {
	for i, x := range m.Data {
		m.Data[i] = 1 / (1 + math.Exp(-x))
	}
	return m
}

// TanhMat applies tanh in place and returns the matrix.
func TanhMat(m *Matrix) *Matrix {
	for i, x := range m.Data {
		m.Data[i] = math.Tanh(x)
	}
	return m
}

// Scale multiplies every element by s in place and returns the matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddMat returns a + b elementwise. Shapes must match.
func AddMat(a, b *Matrix) *Matrix {
	if a.R != b.R || a.C != b.C {
		panic("tensor: AddMat shape mismatch") //lint:ignore exit-hygiene elementwise shape invariant; caller bug
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}

// MulMat returns a * b elementwise (Hadamard product, the LSTM gate
// combine). Shapes must match.
func MulMat(a, b *Matrix) *Matrix {
	if a.R != b.R || a.C != b.C {
		panic("tensor: MulMat shape mismatch") //lint:ignore exit-hygiene elementwise shape invariant; caller bug
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= b.Data[i]
	}
	return out
}

// RandomMatrix returns a matrix with uniform values in [-1, 1) -
// signed, unlike RandomVolume, because GEMM activations (hidden
// states, attention scores) are not optical-power-encoded until the
// chip splits them into positive and negative passes. Deterministic
// for a given seed.
func RandomMatrix(r, c int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// RandomNonNegMatrix returns a matrix with uniform values in [0, 1),
// mimicking post-ReLU GEMM activations.
//
//lint:ignore unreachable test fixture: core's golden GEMM cases draw non-negative operands with it
func RandomNonNegMatrix(r, c int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}
