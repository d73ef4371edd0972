// Package backendtest is a conformance suite for inference.Backend
// implementations. Every backend in the repo - the exact digital
// reference, the analog chip, the observed and guarded wrappers, and
// the fleet-bound pool - must satisfy the same layer contract: correct
// output geometry for dense/strided/pointwise/depthwise/grouped
// convolutions, classifiers, and dense GEMMs, finite outputs,
// non-negative outputs
// under ReLU, deterministic repeatability from a fresh backend, and
// bounded divergence from the exact reference. Running one shared
// table against all of them closes the gap where each backend was
// tested ad hoc.
package backendtest

import (
	"math"
	"testing"

	"albireo/internal/inference"
	"albireo/internal/tensor"
)

// Factory builds a fresh backend. It is called once per subtest (and
// twice for the repeatability case), so it must return deterministic,
// independent instances: same construction, same outputs.
type Factory func(t *testing.T) inference.Backend

// convCase is one convolution geometry in the conformance table.
type convCase struct {
	name    string
	inZ     int
	size    int
	kernels func(seed int64) *tensor.Kernels
	cfg     tensor.ConvConfig
	relu    bool
}

// cases covers the layer geometries the Albireo mapping distinguishes:
// receptive-field convs, strides, the pointwise fast path, depthwise
// and grouped variants.
//
//lint:ignore unreachable test helper package: inference's conformance tests and fleet's backend tests run it
func cases() []convCase {
	return []convCase{
		{
			name: "dense-3x3-pad1-relu",
			inZ:  3, size: 10,
			kernels: func(seed int64) *tensor.Kernels { return tensor.RandomKernels(4, 3, 3, 3, seed) },
			cfg:     tensor.ConvConfig{Stride: 1, Pad: 1},
			relu:    true,
		},
		{
			name: "dense-3x3-stride2",
			inZ:  3, size: 11,
			kernels: func(seed int64) *tensor.Kernels { return tensor.RandomKernels(5, 3, 3, 3, seed) },
			cfg:     tensor.ConvConfig{Stride: 2, Pad: 1},
		},
		{
			name: "pointwise-1x1",
			inZ:  6, size: 8,
			kernels: func(seed int64) *tensor.Kernels { return tensor.RandomKernels(4, 6, 1, 1, seed) },
			cfg:     tensor.ConvConfig{Stride: 1},
			relu:    true,
		},
		{
			name: "depthwise-3x3",
			inZ:  4, size: 9,
			kernels: func(seed int64) *tensor.Kernels { return tensor.RandomKernels(4, 1, 3, 3, seed) },
			cfg:     tensor.ConvConfig{Stride: 1, Pad: 1, Depthwise: true},
		},
		{
			name: "grouped-3x3",
			inZ:  4, size: 9,
			kernels: func(seed int64) *tensor.Kernels { return tensor.RandomKernels(4, 2, 3, 3, seed) },
			cfg:     tensor.ConvConfig{Stride: 1, Pad: 1, Groups: 2},
		},
	}
}

// Run exercises the conformance table against backends built by mk.
//
//lint:ignore unreachable test helper package: inference's conformance tests and fleet's backend tests run it
func Run(t *testing.T, mk Factory) {
	exact := inference.Exact{}

	for _, tc := range cases() {
		t.Run("conv/"+tc.name, func(t *testing.T) {
			b := mk(t)
			in := tensor.RandomVolume(tc.inZ, tc.size, tc.size, 41)
			w := tc.kernels(42)
			out := b.Conv(in, w, tc.cfg, tc.relu)
			ref := exact.Conv(in, w, tc.cfg, tc.relu)
			if out.Z != ref.Z || out.Y != ref.Y || out.X != ref.X {
				t.Fatalf("%s: output shape %dx%dx%d, want %dx%dx%d",
					b.Name(), out.Z, out.Y, out.X, ref.Z, ref.Y, ref.X)
			}
			checkFinite(t, b.Name(), out.Data)
			if tc.relu {
				for i, v := range out.Data {
					if v < 0 {
						t.Fatalf("%s: ReLU output[%d] = %g < 0", b.Name(), i, v)
					}
				}
			}
			if r := relRMS(out.Data, ref.Data); !(r < 0.5) {
				t.Fatalf("%s: relative RMS divergence from exact = %g, want < 0.5", b.Name(), r)
			}
		})
	}

	t.Run("fully-connected", func(t *testing.T) {
		b := mk(t)
		in := tensor.RandomVolume(4, 6, 6, 43)
		w := tensor.RandomKernels(10, 4, 6, 6, 44)
		out := b.FullyConnected(in, w, false)
		ref := exact.FullyConnected(in, w, false)
		if len(out) != len(ref) {
			t.Fatalf("%s: %d logits, want %d", b.Name(), len(out), len(ref))
		}
		checkFinite(t, b.Name(), out)
		if r := relRMS(out, ref); !(r < 0.5) {
			t.Fatalf("%s: relative RMS divergence from exact = %g, want < 0.5", b.Name(), r)
		}
	})

	t.Run("fully-connected-relu", func(t *testing.T) {
		b := mk(t)
		in := tensor.RandomVolume(4, 6, 6, 45)
		w := tensor.RandomKernels(10, 4, 6, 6, 46)
		for i, v := range b.FullyConnected(in, w, true) {
			if v < 0 {
				t.Fatalf("%s: ReLU logit[%d] = %g < 0", b.Name(), i, v)
			}
		}
	})

	t.Run("gemm/signed", func(t *testing.T) {
		b := mk(t)
		a := tensor.RandomMatrix(7, 20, 51)
		w := tensor.RandomMatrix(20, 9, 52)
		out := b.GEMM(a, w, false)
		ref := exact.GEMM(a, w, false)
		if out.R != ref.R || out.C != ref.C {
			t.Fatalf("%s: GEMM shape %dx%d, want %dx%d", b.Name(), out.R, out.C, ref.R, ref.C)
		}
		checkFinite(t, b.Name(), out.Data)
		if r := relRMS(out.Data, ref.Data); !(r < 0.5) {
			t.Fatalf("%s: relative RMS divergence from exact = %g, want < 0.5", b.Name(), r)
		}
	})

	t.Run("gemm/nonneg-relu", func(t *testing.T) {
		b := mk(t)
		a := tensor.RandomNonNegMatrix(6, 16, 53)
		w := tensor.RandomMatrix(16, 8, 54)
		out := b.GEMM(a, w, true)
		ref := exact.GEMM(a, w, true)
		checkFinite(t, b.Name(), out.Data)
		for i, v := range out.Data {
			if v < 0 {
				t.Fatalf("%s: ReLU GEMM output[%d] = %g < 0", b.Name(), i, v)
			}
		}
		if r := relRMS(out.Data, ref.Data); !(r < 0.5) {
			t.Fatalf("%s: relative RMS divergence from exact = %g, want < 0.5", b.Name(), r)
		}
	})

	t.Run("gemm/repeatable", func(t *testing.T) {
		// Same contract as conv: fresh backends, bit-identical GEMMs.
		a := tensor.RandomMatrix(5, 12, 55)
		w := tensor.RandomMatrix(12, 6, 56)
		x := mk(t).GEMM(a, w, false)
		y := mk(t).GEMM(a, w, false)
		if x.R != y.R || x.C != y.C {
			t.Fatalf("GEMM shapes differ: %dx%d vs %dx%d", x.R, x.C, y.R, y.C)
		}
		for i := range x.Data {
			if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
				t.Fatalf("GEMM output[%d] differs across fresh backends: %g vs %g",
					i, x.Data[i], y.Data[i])
			}
		}
	})

	t.Run("name", func(t *testing.T) {
		if mk(t).Name() == "" {
			t.Fatal("backend has an empty name")
		}
	})

	t.Run("repeatable", func(t *testing.T) {
		// Two independently constructed backends must produce
		// bit-identical outputs for the same work: noise is seeded, so
		// determinism - the repo-wide invariant - is part of the
		// Backend contract.
		in := tensor.RandomVolume(3, 10, 10, 47)
		w := tensor.RandomKernels(4, 3, 3, 3, 48)
		cfg := tensor.ConvConfig{Stride: 1, Pad: 1}
		a := mk(t).Conv(in, w, cfg, true)
		b := mk(t).Conv(in, w, cfg, true)
		if len(a.Data) != len(b.Data) {
			t.Fatalf("output sizes differ: %d vs %d", len(a.Data), len(b.Data))
		}
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("output[%d] differs across fresh backends: %g vs %g",
					i, a.Data[i], b.Data[i])
			}
		}
	})
}

// checkFinite fails on NaN or Inf anywhere in the output.
//
//lint:ignore unreachable test helper package: inference's conformance tests and fleet's backend tests run it
func checkFinite(t *testing.T, name string, data []float64) {
	t.Helper()
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: output[%d] = %g is not finite", name, i, v)
		}
	}
}

// relRMS returns the RMS of (got - want) relative to the RMS of want.
//
//lint:ignore unreachable test helper package: inference's conformance tests and fleet's backend tests run it
func relRMS(got, want []float64) float64 {
	if len(got) != len(want) || len(want) == 0 {
		return math.Inf(1)
	}
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den <= 0 {
		return math.Sqrt(num / float64(len(want)))
	}
	return math.Sqrt(num / den)
}
