package perf

import (
	"testing"

	"albireo/internal/core"
	"albireo/internal/nn"
)

func TestSmallLayerNeedsNoTiling(t *testing.T) {
	l := nn.Layer{Kind: nn.Conv, InZ: 512, InY: 14, InX: 14, OutZ: 512, KY: 3, KX: 3, Stride: 1, Pad: 1}
	p := PlanTiling(core.DefaultConfig(), l)
	if !p.Fits() {
		t.Error("100 kB activations fit the 256 kB buffer: no tiling")
	}
	if p.DRAMEnergy != 0 {
		t.Error("resident layers cost no DRAM energy")
	}
}

func TestVGGEarlyLayerTiles(t *testing.T) {
	// conv1_2: 224x224x64 input = 3.2 MB. Must tile into row bands.
	l := nn.Layer{Kind: nn.Conv, InZ: 64, InY: 224, InX: 224, OutZ: 64, KY: 3, KX: 3, Stride: 1, Pad: 1}
	p := PlanTiling(core.DefaultConfig(), l)
	if p.Fits() {
		t.Fatal("3.2 MB input must tile")
	}
	if p.Tiles < 20 {
		t.Errorf("expected many row bands, got %d", p.Tiles)
	}
	// Halo of KY - stride = 2 rows per boundary.
	if p.HaloRows != 2 {
		t.Errorf("halo rows = %d, want 2", p.HaloRows)
	}
	// DRAM reads exceed the raw input by the halo re-reads only
	// (bounded by ~tiles * halo * rowbytes).
	raw := int64(64 * 224 * 224)
	if p.DRAMReadBytes <= raw {
		t.Error("tiled reads must include halo overhead")
	}
	// 9-row bands over 224 rows re-read 2 halo rows ~31 times: ~28%.
	overhead := float64(p.DRAMReadBytes-raw) / float64(raw)
	if overhead > 0.35 {
		t.Errorf("halo overhead %.1f%% implausibly large", overhead*100)
	}
	if p.DRAMWriteBytes != int64(64*224*224) {
		t.Errorf("output writes = %d", p.DRAMWriteBytes)
	}
}

func TestStridedTilingHasNoHalo(t *testing.T) {
	// A stride-2 3x3 kernel overlaps by 1 row; stride-4 11x11 overlaps
	// by 7. Check the halo arithmetic.
	l := nn.Layer{Kind: nn.Conv, InZ: 64, InY: 224, InX: 224, OutZ: 64, KY: 3, KX: 3, Stride: 2, Pad: 1}
	if p := PlanTiling(core.DefaultConfig(), l); p.HaloRows != 1 {
		t.Errorf("stride-2 3x3 halo = %d, want 1", p.HaloRows)
	}
	l2 := nn.Layer{Kind: nn.Conv, InZ: 3, InY: 896, InX: 896, OutZ: 8, KY: 2, KX: 2, Stride: 2}
	if p := PlanTiling(core.DefaultConfig(), l2); p.HaloRows != 0 {
		t.Errorf("stride-2 2x2 halo = %d, want 0", p.HaloRows)
	}
}

func TestFCNeverTiles(t *testing.T) {
	// FC inputs are small: every zoo FC layer's input fits the 256 kB
	// buffer, so none tiles (the largest is VGG16 fc1's 25088 bytes).
	for _, m := range nn.Benchmarks() {
		for _, l := range m.Layers {
			if l.Kind == nn.FC && !PlanTiling(core.DefaultConfig(), l).Fits() {
				t.Errorf("%s/%s: FC input should fit the buffer", m.Name, l.Name)
			}
		}
	}
}

func TestModelTilingVGG(t *testing.T) {
	mt := PlanModel(core.DefaultConfig(), nn.VGG16())
	// The first four conv stages (224 and 112 inputs at 64/128
	// channels) exceed the buffer.
	if mt.TiledLayers < 4 {
		t.Errorf("VGG16 tiled layers = %d, want >= 4", mt.TiledLayers)
	}
	if mt.DRAMEnergy <= 0 {
		t.Fatal("VGG16 must pay off-chip energy")
	}
	// Off-chip energy is a visible but not dominant fraction of the
	// paper-style compute energy (~64 mJ on Albireo-C): order 0.1-2 mJ.
	if mt.DRAMEnergy > 10e-3 || mt.DRAMEnergy < 0.05e-3 {
		t.Errorf("DRAM energy %.3g J outside the plausible window", mt.DRAMEnergy)
	}
	if mt.String() == "" {
		t.Error("String")
	}
}

func TestModelTilingAlexNetResident(t *testing.T) {
	// AlexNet activations fit the buffer everywhere (stride-4 stem):
	// no tiled layers, but pooling-free DRAM writes may still be zero
	// under this model.
	mt := PlanModel(core.DefaultConfig(), nn.AlexNet())
	if mt.TiledLayers != 0 {
		t.Errorf("AlexNet tiled layers = %d, want 0", mt.TiledLayers)
	}
	if mt.DRAMEnergy != 0 {
		t.Error("resident model should cost no DRAM energy in this model")
	}
}
