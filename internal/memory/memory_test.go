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
	if big.AccessEnergy() <= small.AccessEnergy() {
		t.Error("bigger arrays should cost more per access")
	}
	ratio := big.AccessEnergy() / small.AccessEnergy()
	if math.Abs(ratio-4) > 0.01 { // sqrt(16x capacity)
		t.Errorf("energy ratio = %g, want 4 (sqrt scaling)", ratio)
	}
	// Anchor: 16 kB at 4 B/word is 40 fJ/access.
	if math.Abs(small.AccessEnergy()-40e-15) > 1e-18 {
		t.Errorf("anchor access energy = %g, want 40 fJ", small.AccessEnergy())
	}
}

func TestReadWriteEnergy(t *testing.T) {
	s := New(16<<10, 4, 0, 0)
	// 10 bytes needs 3 words.
	if math.Abs(s.ReadEnergy(10)-3*s.AccessEnergy()) > 1e-20 {
		t.Error("read energy word rounding")
	}
	if math.Abs(s.WriteEnergy(4)-1.2*s.AccessEnergy()) > 1e-20 {
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

func TestLayerTrafficEnergy(t *testing.T) {
	tr := LayerTraffic{InputReads: 1 << 20, WeightReads: 1 << 16, OutputWrites: 1 << 20}
	e := tr.Energy()
	if e <= 0 {
		t.Fatal("traffic energy must be positive")
	}
	// Doubling the traffic roughly doubles the energy.
	tr2 := LayerTraffic{InputReads: 2 << 20, WeightReads: 2 << 16, OutputWrites: 2 << 20}
	ratio := tr2.Energy() / e
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("traffic energy ratio = %g, want 2", ratio)
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

// No binary uses the declarations below; they live with the tests
// that check them.

// AccessEnergy returns the dynamic energy of one word access in
// joules.
func (s SRAM) AccessEnergy() float64 { return s.baseAccessEnergy }

// LayerTraffic estimates the SRAM energy of one convolution layer's
// data movement: each input element is read once per kernel pass (the
// broadcast amortizes it across PLCGs), kernel weights are read once
// per cache fill, and each output activation is written once - the
// "no partial sum writes" property of the PLCG's stationary
// accumulation (Section III-B).
type LayerTraffic struct {
	// InputReads, WeightReads, OutputWrites are byte counts.
	InputReads, WeightReads, OutputWrites int64
}

// Energy returns the total SRAM energy for the traffic, with inputs
// and outputs hitting the global buffer and weights the kernel caches.
func (t LayerTraffic) Energy() float64 {
	gb := GlobalBuffer()
	kc := KernelCache()
	return gb.ReadEnergy(int(t.InputReads)) +
		kc.ReadEnergy(int(t.WeightReads)) +
		gb.WriteEnergy(int(t.OutputWrites))
}
