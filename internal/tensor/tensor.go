// Package tensor provides the minimal dense-tensor substrate the
// Albireo simulator computes on: 3-D input volumes A[z][y][x], 4-D
// kernel banks W[m][z][y][x], and the exact reference implementations
// of convolution (paper Algorithm 1), fully-connected layers, pooling,
// and activation functions. The functional photonic simulator in
// internal/core is validated against these references.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Volume is a 3-D tensor indexed [z][y][x] - the paper's input/output
// volume layout with depth (channels) first.
type Volume struct {
	Z, Y, X int
	Data    []float64 // len Z*Y*X, x fastest
}

// NewVolume allocates a zeroed volume of the given shape.
func NewVolume(z, y, x int) *Volume {
	if z < 0 || y < 0 || x < 0 {
		panic(fmt.Sprintf("tensor: negative volume shape %dx%dx%d", z, y, x)) //lint:ignore exit-hygiene negative volume shape invariant; caller bug
	}
	return &Volume{Z: z, Y: y, X: x, Data: make([]float64, z*y*x)}
}

// At returns element (z, y, x).
func (v *Volume) At(z, y, x int) float64 {
	return v.Data[(z*v.Y+y)*v.X+x]
}

// Set writes element (z, y, x).
func (v *Volume) Set(z, y, x int, val float64) {
	v.Data[(z*v.Y+y)*v.X+x] = val
}

// AtPadded returns element (z, y, x) treating out-of-bounds y/x as the
// zero padding of the convolution input.
func (v *Volume) AtPadded(z, y, x int) float64 {
	if y < 0 || y >= v.Y || x < 0 || x >= v.X {
		return 0
	}
	return v.At(z, y, x)
}

// Clone returns a deep copy.
func (v *Volume) Clone() *Volume {
	out := NewVolume(v.Z, v.Y, v.X)
	copy(out.Data, v.Data)
	return out
}

// Fill sets every element using f(z, y, x).
func (v *Volume) Fill(f func(z, y, x int) float64) {
	for z := 0; z < v.Z; z++ {
		for y := 0; y < v.Y; y++ {
			for x := 0; x < v.X; x++ {
				v.Set(z, y, x, f(z, y, x))
			}
		}
	}
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (v *Volume) MaxAbs() float64 {
	m := 0.0
	for _, x := range v.Data {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Shape returns (Z, Y, X).
//
//lint:ignore unreachable test fixture: TestVolumeHelpers reads shapes with it
func (v *Volume) Shape() (int, int, int) { return v.Z, v.Y, v.X }

// String implements fmt.Stringer.
func (v *Volume) String() string {
	return fmt.Sprintf("volume{%dx%dx%d}", v.Z, v.Y, v.X)
}

// Kernels is a bank of M convolution kernels, each Z channels of YxX
// weights: W[m][z][y][x].
type Kernels struct {
	M, Z, Y, X int
	Data       []float64
}

// NewKernels allocates a zeroed kernel bank.
func NewKernels(m, z, y, x int) *Kernels {
	if m < 0 || z < 0 || y < 0 || x < 0 {
		panic(fmt.Sprintf("tensor: negative kernel shape %dx%dx%dx%d", m, z, y, x)) //lint:ignore exit-hygiene negative kernel shape invariant; caller bug
	}
	return &Kernels{M: m, Z: z, Y: y, X: x, Data: make([]float64, m*z*y*x)}
}

// At returns weight (m, z, y, x).
func (k *Kernels) At(m, z, y, x int) float64 {
	return k.Data[((m*k.Z+z)*k.Y+y)*k.X+x]
}

// Set writes weight (m, z, y, x).
func (k *Kernels) Set(m, z, y, x int, val float64) {
	k.Data[((m*k.Z+z)*k.Y+y)*k.X+x] = val
}

// Fill sets every weight using f(m, z, y, x).
//
//lint:ignore unreachable test fixture: TestConvHandComputed and core's live-tap tests build kernels with it
func (k *Kernels) Fill(f func(m, z, y, x int) float64) {
	for m := 0; m < k.M; m++ {
		for z := 0; z < k.Z; z++ {
			for y := 0; y < k.Y; y++ {
				for x := 0; x < k.X; x++ {
					k.Set(m, z, y, x, f(m, z, y, x))
				}
			}
		}
	}
}

// MaxAbs returns the largest absolute weight (0 for empty).
func (k *Kernels) MaxAbs() float64 {
	m := 0.0
	for _, x := range k.Data {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// RandomVolume returns a volume with uniform values in [0, 1),
// mimicking post-ReLU activations. Deterministic for a given seed.
func RandomVolume(z, y, x int, seed int64) *Volume {
	rng := rand.New(rand.NewSource(seed))
	v := NewVolume(z, y, x)
	for i := range v.Data {
		v.Data[i] = rng.Float64()
	}
	return v
}

// RandomKernels returns kernels with approximately normal weights
// (stddev 0.3, clipped to [-1, 1]), the bell-shaped distribution the
// paper cites for trained CNN layers (Section II-C.2).
func RandomKernels(m, z, y, x int, seed int64) *Kernels {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernels(m, z, y, x)
	for i := range k.Data {
		w := rng.NormFloat64() * 0.3
		if w > 1 {
			w = 1
		}
		if w < -1 {
			w = -1
		}
		k.Data[i] = w
	}
	return k
}
