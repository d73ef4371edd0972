package nn

import (
	"testing"
)

func TestAllModelsValidate(t *testing.T) {
	for _, m := range Benchmarks() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestAlexNetMACs(t *testing.T) {
	// Canonical grouped AlexNet is ~724M MACs; the paper's Table IV
	// GOPS/mm^2 figure (44.7 at 0.13 ms over 124.6 mm^2) back-derives
	// exactly this count (see DESIGN.md).
	m := AlexNet()
	got := m.TotalMACs()
	if got < 700e6 || got > 750e6 {
		t.Errorf("AlexNet MACs = %d, want ~724M", got)
	}
	// ~61M parameters.
	if p := m.TotalParams(); p < 55e6 || p > 65e6 {
		t.Errorf("AlexNet params = %d, want ~61M", p)
	}
}

func TestVGG16MACs(t *testing.T) {
	m := VGG16()
	got := m.TotalMACs()
	// The canonical 15.47 GMACs.
	if got < 15.3e9 || got > 15.6e9 {
		t.Errorf("VGG16 MACs = %d, want ~15.47G", got)
	}
	// ~138M parameters.
	if p := m.TotalParams(); p < 130e6 || p > 145e6 {
		t.Errorf("VGG16 params = %d, want ~138M", p)
	}
}

func TestResNet18MACs(t *testing.T) {
	m := ResNet18()
	got := m.TotalMACs()
	// Canonical ~1.81 GMACs.
	if got < 1.75e9 || got > 1.9e9 {
		t.Errorf("ResNet18 MACs = %d, want ~1.81G", got)
	}
	// ~11M parameters (no BN).
	if p := m.TotalParams(); p < 10e6 || p > 12.5e6 {
		t.Errorf("ResNet18 params = %d, want ~11M", p)
	}
}

func TestMobileNetMACs(t *testing.T) {
	m := MobileNet()
	got := m.TotalMACs()
	// Canonical ~569M MACs.
	if got < 550e6 || got > 590e6 {
		t.Errorf("MobileNet MACs = %d, want ~569M", got)
	}
	// ~4.2M parameters.
	if p := m.TotalParams(); p < 3.8e6 || p > 4.6e6 {
		t.Errorf("MobileNet params = %d, want ~4.2M", p)
	}
}

func TestLayerShapes(t *testing.T) {
	// AlexNet conv1: 224 input, 11x11 s4 p2 -> 55x55.
	l := AlexNet().Layers[0]
	if l.OutY() != 55 || l.OutX() != 55 {
		t.Errorf("AlexNet conv1 output %dx%d, want 55x55", l.OutY(), l.OutX())
	}
	// VGG conv layers preserve spatial dims.
	v := VGG16().Layers[0]
	if v.OutY() != 224 || v.OutX() != 224 {
		t.Error("VGG same-padding conv should preserve 224")
	}
	// FC output is 1x1.
	fc := AlexNet().Layers[8]
	if fc.OutY() != 1 || fc.OutX() != 1 {
		t.Error("FC spatial output should be 1x1")
	}
}

func TestGroupedLayerMACs(t *testing.T) {
	// AlexNet conv2: 27x27x256 out, 5x5 kernel over 96/2 channels.
	var conv2 Layer
	for _, l := range AlexNet().Layers {
		if l.Name == "conv2" {
			conv2 = l
		}
	}
	want := int64(27*27) * 256 * 25 * 48
	if conv2.MACs() != want {
		t.Errorf("conv2 MACs = %d, want %d", conv2.MACs(), want)
	}
}

func TestDepthwisePointwiseMACs(t *testing.T) {
	m := MobileNet()
	var dw, pw Layer
	for _, l := range m.Layers {
		if l.Name == "dw1" {
			dw = l
		}
		if l.Name == "pw1" {
			pw = l
		}
	}
	if dw.MACs() != int64(112*112)*32*9 {
		t.Errorf("dw1 MACs = %d", dw.MACs())
	}
	if pw.MACs() != int64(112*112)*64*32 {
		t.Errorf("pw1 MACs = %d", pw.MACs())
	}
	if dw.Params() != 32*9 || pw.Params() != 64*32 {
		t.Error("depthwise/pointwise parameter counts")
	}
}

func TestPoolingLayersHaveNoMACs(t *testing.T) {
	for _, m := range Benchmarks() {
		for _, l := range m.Layers {
			if (l.Kind == MaxPoolKind || l.Kind == AvgPoolKind) && l.HasMACs() {
				t.Errorf("%s/%s: pooling should carry no MACs", m.Name, l.Name)
			}
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("VGG16"); !ok {
		t.Error("VGG16 should be found")
	}
	if _, ok := ByName("LeNet"); ok {
		t.Error("unknown model should not be found")
	}
}

func TestValidateCatchesMismatch(t *testing.T) {
	m := Model{Name: "broken", Layers: []Layer{
		{Name: "a", Kind: Conv, InZ: 3, InY: 8, InX: 8, OutZ: 4, KY: 3, KX: 3, Pad: 1},
		{Name: "b", Kind: Conv, InZ: 5, InY: 8, InX: 8, OutZ: 4, KY: 3, KX: 3, Pad: 1},
	}}
	if err := m.Validate(); err == nil {
		t.Error("channel mismatch should fail validation")
	}
	m2 := Model{Name: "brokenfc", Layers: []Layer{
		{Name: "a", Kind: Conv, InZ: 3, InY: 8, InX: 8, OutZ: 4, KY: 3, KX: 3, Pad: 1},
		{Name: "fc", Kind: FC, InZ: 4, InY: 9, InX: 9, OutZ: 10, KY: 1, KX: 1},
	}}
	if err := m2.Validate(); err == nil {
		t.Error("FC flatten mismatch should fail validation")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{Conv, Depthwise, Pointwise, FC, MaxPoolKind, AvgPoolKind, Kind(99)}
	want := []string{"conv", "dwconv", "pwconv", "fc", "maxpool", "avgpool", "unknown"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("Kind(%d).String() = %s, want %s", int(k), k.String(), want[i])
		}
	}
	if AlexNet().Layers[0].String() == "" {
		t.Error("layer String")
	}
}

func TestResNetBranchLayers(t *testing.T) {
	m := ResNet18()
	var branches int
	for _, l := range m.Layers {
		if l.Branch {
			branches++
			if l.KY != 1 || l.Stride != 2 {
				t.Error("downsample shortcuts are 1x1 stride-2 convs")
			}
		}
	}
	if branches != 3 {
		t.Errorf("ResNet18 should have 3 downsample shortcuts, got %d", branches)
	}
}
