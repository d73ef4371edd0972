package tensor

import (
	"fmt"
	"math"
)

// ConvOutputDim computes one spatial output dimension of a convolution
// (paper Eq. 1): B = (A - W + 2P)/S + 1. The paper typesets the
// division with a ceiling, but kernel placements must stay inside the
// padded input, so the standard floor semantics is used here; the two
// agree on every layer of the evaluated CNNs, where the division is
// exact.
func ConvOutputDim(a, w, p, s int) int {
	if s <= 0 {
		panic("tensor: stride must be positive") //lint:ignore exit-hygiene stride precondition; caller bug
	}
	num := a - w + 2*p
	if num < 0 {
		return 0
	}
	return num/s + 1
}

// ConvConfig describes a convolution layer's geometry.
type ConvConfig struct {
	// Stride and Pad apply symmetrically in x and y.
	Stride, Pad int
	// Groups partitions input and output channels (grouped
	// convolution, as in AlexNet's split layers). 1 means dense.
	Groups int
	// Depthwise marks a depthwise convolution (MobileNet): each input
	// channel is filtered independently; kernels have Z = 1 and
	// M equals the input channel count.
	Depthwise bool
}

// normalize fills defaulted fields.
func (c ConvConfig) normalize() ConvConfig {
	if c.Stride == 0 {
		c.Stride = 1
	}
	if c.Groups == 0 {
		c.Groups = 1
	}
	return c
}

// Conv computes the exact convolution of Algorithm 1 (extended with
// padding, stride, groups and depthwise support). It returns the
// output volume of shape [M][By][Bx] where By/Bx follow Eq. 1. No
// activation is applied; compose with ReLU explicitly.
//
// Every output is the textbook per-MAC sum, bit for bit: starting from
// +0, it adds the same input x weight products in (z, ky, kx) order,
// the 0 x w products of padding taps included, so a NaN or Inf weight
// reaches every output whose window covers it, padding or not (which
// NaN payload survives a sum of two NaNs is the compiler's choice of
// operand order, as for any add). Only the loop nest differs: the
// padded input is built once, and each tap is added into a whole
// output row at a time, so adjacent outputs are independent add chains
// the CPU overlaps.
func Conv(a *Volume, w *Kernels, cfg ConvConfig) *Volume {
	cfg = cfg.normalize()
	if cfg.Depthwise {
		if w.M != a.Z || w.Z != 1 {
			panic(fmt.Sprintf("tensor: depthwise wants M=%d kernels of depth 1, got M=%d Z=%d", a.Z, w.M, w.Z)) //lint:ignore exit-hygiene depthwise shape invariant; caller bug
		}
		// Depthwise is the grouped conv with one channel per group.
		cfg.Groups = a.Z
	} else {
		if a.Z%cfg.Groups != 0 || w.M%cfg.Groups != 0 {
			panic(fmt.Sprintf("tensor: groups %d do not divide channels %d/%d", cfg.Groups, a.Z, w.M)) //lint:ignore exit-hygiene group divisibility invariant; caller bug
		}
		if w.Z != a.Z/cfg.Groups {
			panic(fmt.Sprintf("tensor: kernel depth %d != input channels per group %d", w.Z, a.Z/cfg.Groups)) //lint:ignore exit-hygiene kernel depth invariant; caller bug
		}
	}
	by := ConvOutputDim(a.Y, w.Y, cfg.Pad, cfg.Stride)
	bx := ConvOutputDim(a.X, w.X, cfg.Pad, cfg.Stride)
	out := NewVolume(w.M, by, bx)
	if len(out.Data) == 0 {
		return out
	}
	// src is the input with its padding stored as zeros: padded row y,
	// column x of channel z sits at src[(z*sy+y+off)*sx+x+off], where
	// off skips the rows and columns a negative pad crops.
	src, sy, sx, off := a.Data, a.Y, a.X, 0
	if p := cfg.Pad; p > 0 {
		sy, sx = a.Y+2*p, a.X+2*p
		src = make([]float64, a.Z*sy*sx)
		for z := 0; z < a.Z; z++ {
			for y := 0; y < a.Y; y++ {
				copy(src[(z*sy+y+p)*sx+p:], a.Data[(z*a.Y+y)*a.X:(z*a.Y+y+1)*a.X])
			}
		}
	} else {
		off = -cfg.Pad
	}
	s, plane := cfg.Stride, w.Y*w.X
	mPerGroup, zPerGroup := w.M/cfg.Groups, a.Z/cfg.Groups
	for m := 0; m < w.M; m++ {
		zBase := m / mPerGroup * zPerGroup
		for oy := 0; oy < by; oy++ {
			row := out.Data[(m*by+oy)*bx : (m*by+oy+1)*bx]
			for z := 0; z < w.Z; z++ {
				in := src[((zBase+z)*sy+oy*s+off)*sx+off:]
				k := w.Data[(m*w.Z+z)*plane : (m*w.Z+z+1)*plane]
				if s == 1 && w.Y == 3 && w.X == 3 {
					accumulate3x3(row, in, sx, k)
					continue
				}
				for ky := 0; ky < w.Y; ky++ {
					line := in[ky*sx:]
					for kx, wt := range k[ky*w.X : (ky+1)*w.X] {
						for i := range row {
							row[i] += line[i*s+kx] * wt
						}
					}
				}
			}
		}
	}
	return out
}

// accumulate3x3 adds one channel's nine stride-1 taps into a whole
// output row, each output's products in (ky, kx) order: in holds the
// channel's padded input from the row's first tap on, with rows sx
// apart.
func accumulate3x3(row, in []float64, sx int, k []float64) {
	n := len(row) + 2
	l0, l1, l2 := in[:n], in[sx:sx+n], in[2*sx:2*sx+n]
	k = k[:9]
	for i := range row {
		row[i] = row[i] + l0[i]*k[0] + l0[i+1]*k[1] + l0[i+2]*k[2] +
			l1[i]*k[3] + l1[i+1]*k[4] + l1[i+2]*k[5] +
			l2[i]*k[6] + l2[i+1]*k[7] + l2[i+2]*k[8]
	}
}

// FullyConnected computes out[m] = sum over the whole input volume of
// a * w[m], the FC mapping of Section III-C ("a kernel that has a
// receptive field that is the size of the entire input volume"). The
// kernel bank must match the input shape exactly.
func FullyConnected(a *Volume, w *Kernels) []float64 {
	if w.Z != a.Z || w.Y != a.Y || w.X != a.X {
		panic(fmt.Sprintf("tensor: FC kernel shape %dx%dx%d != input %dx%dx%d", //lint:ignore exit-hygiene FC kernel shape invariant; caller bug
			w.Z, w.Y, w.X, a.Z, a.Y, a.X))
	}
	out := make([]float64, w.M)
	n := a.Z * a.Y * a.X
	for m := 0; m < w.M; m++ {
		base := m * n
		var sum float64
		for i := 0; i < n; i++ {
			sum += a.Data[i] * w.Data[base+i]
		}
		out[m] = sum
	}
	return out
}

// ReLU applies max(0, x) in place and returns the volume.
func ReLU(v *Volume) *Volume {
	for i, x := range v.Data {
		if x < 0 {
			v.Data[i] = 0
		}
	}
	return v
}

// ReLUVec applies max(0, x) to a vector in place and returns it.
func ReLUVec(v []float64) []float64 {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
	return v
}

// MaxPool performs max pooling with the given window and stride.
func MaxPool(a *Volume, window, stride int) *Volume {
	by := ConvOutputDim(a.Y, window, 0, stride)
	bx := ConvOutputDim(a.X, window, 0, stride)
	out := NewVolume(a.Z, by, bx)
	for z := 0; z < a.Z; z++ {
		for oy := 0; oy < by; oy++ {
			for ox := 0; ox < bx; ox++ {
				m := math.Inf(-1)
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						y, x := oy*stride+ky, ox*stride+kx
						if y < a.Y && x < a.X {
							if v := a.At(z, y, x); v > m {
								m = v
							}
						}
					}
				}
				out.Set(z, oy, ox, m)
			}
		}
	}
	return out
}

// AvgPool performs average pooling with the given window and stride.
func AvgPool(a *Volume, window, stride int) *Volume {
	by := ConvOutputDim(a.Y, window, 0, stride)
	bx := ConvOutputDim(a.X, window, 0, stride)
	out := NewVolume(a.Z, by, bx)
	for z := 0; z < a.Z; z++ {
		for oy := 0; oy < by; oy++ {
			for ox := 0; ox < bx; ox++ {
				var sum float64
				var cnt int
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						y, x := oy*stride+ky, ox*stride+kx
						if y < a.Y && x < a.X {
							sum += a.At(z, y, x)
							cnt++
						}
					}
				}
				out.Set(z, oy, ox, sum/float64(cnt))
			}
		}
	}
	return out
}

// Add returns a + b elementwise (residual connections). Shapes must
// match.
func Add(a, b *Volume) *Volume {
	if a.Z != b.Z || a.Y != b.Y || a.X != b.X {
		panic("tensor: Add shape mismatch") //lint:ignore exit-hygiene elementwise shape invariant; caller bug
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}
