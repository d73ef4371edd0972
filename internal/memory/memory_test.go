package memory

import (
	"math"
	"testing"
)

func TestGlobalBufferMatchesPaper(t *testing.T) {
	gb := GlobalBuffer()
	if gb.CapacityBytes != 256<<10 {
		t.Error("global buffer should be 256 kB")
	}
	want := 0.59e-3 * 0.34e-3
	if math.Abs(gb.Area-want) > 1e-15 {
		t.Error("global buffer footprint mismatch with Section IV-A")
	}
}

func TestKernelCacheMatchesPaper(t *testing.T) {
	kc := KernelCache()
	if kc.CapacityBytes != 16<<10 {
		t.Error("kernel cache should be 16 kB")
	}
	want := 0.092e-3 * 0.085e-3
	if math.Abs(kc.Area-want) > 1e-15 {
		t.Error("kernel cache footprint mismatch with Section IV-A")
	}
}

func TestAccessEnergyScaling(t *testing.T) {
	// Larger arrays cost more per access (sqrt capacity scaling).
	small := New(16<<10, 4, 0, 0)
	big := New(256<<10, 4, 0, 0)
	smallWord, bigWord := small.ReadEnergy(small.WordBytes), big.ReadEnergy(big.WordBytes)
	if bigWord <= smallWord {
		t.Error("bigger arrays should cost more per access")
	}
	ratio := bigWord / smallWord
	if math.Abs(ratio-4) > 0.01 { // sqrt(16x capacity)
		t.Errorf("energy ratio = %g, want 4 (sqrt scaling)", ratio)
	}
	// Anchor: 16 kB at 4 B/word is 40 fJ/access.
	if math.Abs(smallWord-40e-15) > 1e-18 {
		t.Errorf("anchor access energy = %g, want 40 fJ", smallWord)
	}
}

func TestReadWriteEnergy(t *testing.T) {
	s := New(16<<10, 4, 0, 0)
	word := s.ReadEnergy(s.WordBytes)
	// 10 bytes needs 3 words.
	if math.Abs(s.ReadEnergy(10)-3*word) > 1e-20 {
		t.Error("read energy word rounding")
	}
	if math.Abs(s.WriteEnergy(4)-1.2*word) > 1e-20 {
		t.Error("write energy should be 1.2x read")
	}
	if s.ReadEnergy(0) != 0 {
		t.Error("zero-byte read is free")
	}
}

func TestBandwidth(t *testing.T) {
	s := New(16<<10, 8, 0, 0)
	if s.Bandwidth(1e9) != 8e9 {
		t.Error("bandwidth should be word * clock")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid geometry should panic")
		}
	}()
	New(0, 4, 0, 0)
}

func TestString(t *testing.T) {
	if GlobalBuffer().String() == "" {
		t.Error("String")
	}
}
