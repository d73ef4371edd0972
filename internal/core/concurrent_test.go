package core

import (
	"testing"

	"albireo/internal/tensor"
)

// These tests compare Conv's lane path with the one-lane oracle (see
// lanes_test.go). They change GOMAXPROCS, so none runs in parallel.

func TestConvConcurrentBitIdentical(t *testing.T) {
	// PLCGs have private noise streams partitioned by group, so the
	// lane path must be bit-identical to the sequential one even with
	// noise enabled.
	a := tensor.RandomVolume(6, 10, 10, 301)
	w := tensor.RandomKernels(13, 6, 3, 3, 302) // 13 kernels: uneven groups
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}

	seq := oneLane(func() *tensor.Volume { return NewChip(DefaultConfig()).Conv(a, w, cc, true) })
	par := manyLanes(func() *tensor.Volume { return NewChip(DefaultConfig()).Conv(a, w, cc, true) })
	if seq.Z != par.Z || seq.Y != par.Y || seq.X != par.X {
		t.Fatal("shape mismatch")
	}
	assertSameBits(t, "conv", seq.Data, par.Data)
}

func TestConvConcurrentStride(t *testing.T) {
	a := tensor.RandomVolume(4, 9, 9, 303)
	w := tensor.RandomKernels(5, 4, 3, 3, 304)
	cc := tensor.ConvConfig{Stride: 2, Pad: 1}
	seq := oneLane(func() *tensor.Volume { return NewChip(idealConfig()).Conv(a, w, cc, false) })
	par := manyLanes(func() *tensor.Volume { return NewChip(idealConfig()).Conv(a, w, cc, false) })
	assertSameBits(t, "strided conv", seq.Data, par.Data)
}

func TestConvConcurrentFallbacks(t *testing.T) {
	// Depthwise and grouped layers fan out too (grouped through one
	// dense Conv per channel group) and must still be correct.
	chip := NewChip(idealConfig())
	a := tensor.RandomVolume(4, 6, 6, 305)
	dw := tensor.RandomKernels(4, 1, 3, 3, 306)
	out := manyLanes(func() *tensor.Volume { return chip.Conv(a, dw, tensor.ConvConfig{Pad: 1, Depthwise: true}, false) })
	want := tensor.Conv(a, dw, tensor.ConvConfig{Pad: 1, Depthwise: true})
	if e := rmsError(out, want); e > 0.1 {
		t.Errorf("depthwise RMS error %.3f", e)
	}
	gw := tensor.RandomKernels(4, 2, 3, 3, 307)
	out2 := manyLanes(func() *tensor.Volume { return chip.Conv(a, gw, tensor.ConvConfig{Pad: 1, Groups: 2}, false) })
	want2 := tensor.Conv(a, gw, tensor.ConvConfig{Pad: 1, Groups: 2})
	if e := rmsError(out2, want2); e > 0.1 {
		t.Errorf("grouped RMS error %.3f", e)
	}
}
