package perf

import (
	"testing"

	"albireo/internal/core"
	"albireo/internal/nn"
)

func TestVGGConvKernelsFitCache(t *testing.T) {
	// VGG16's largest conv kernel is 3x3x512 = 4608 bytes: comfortably
	// inside the 16 kB kernel cache, as the paper's sizing implies.
	mf := CheckModel(core.DefaultConfig(), nn.VGG16())
	for _, f := range mf.Layers {
		if f.Layer.Kind != nn.Conv {
			continue
		}
		if !f.KernelCacheFits {
			t.Errorf("%s: conv kernel (%d B) should fit the 16 kB cache", f.Layer.Name, f.KernelBytes)
		}
	}
}

func TestFCKernelsExceedCache(t *testing.T) {
	// VGG16 fc1 kernels cover the 25088-element input: they must
	// stream (cache misfit).
	mf := CheckModel(core.DefaultConfig(), nn.VGG16())
	var fc1 *Feasibility
	for i := range mf.Layers {
		if mf.Layers[i].Layer.Name == "fc1" {
			fc1 = &mf.Layers[i]
		}
	}
	if fc1 == nil {
		t.Fatal("missing fc1")
	}
	if fc1.KernelCacheFits {
		t.Errorf("fc1 kernel (%d B) cannot fit a 16 kB cache", fc1.KernelBytes)
	}
	if mf.CacheMisfits == 0 {
		t.Error("VGG16 should report FC cache misfits")
	}
}

func TestEarlyLayersExceedGlobalBuffer(t *testing.T) {
	// 224x224x64 activations are 3.2 MB: far beyond the 256 kB global
	// buffer, so early VGG layers tile through off-chip memory.
	mf := CheckModel(core.DefaultConfig(), nn.VGG16())
	if mf.BufferMisfits == 0 {
		t.Error("VGG16 early layers should exceed the 256 kB buffer")
	}
	// Late layers (14x14x512 = 100 kB) fit.
	for _, f := range mf.Layers {
		if f.Layer.Name == "conv5_1" && !f.GlobalBufferFits {
			t.Error("conv5_1 activations should fit the global buffer")
		}
	}
}

func TestBandwidthWithinLimits(t *testing.T) {
	// Receptive-field convolutions stream within the banked SRAM
	// bandwidth at the modulation rate: their Nd columns share one
	// Wy*(Nd+Wx-1) window per PLCU. The block layout is the exception:
	// it wants Nm fresh operands per PLCU per column, Nu*Nm*Nd per
	// step, which exceeds both the buffer banks and the 64-wavelength
	// distribution budget - a limitation this checker surfaces (see
	// EXPERIMENTS.md). Pointwise and FC layers run on the block layout,
	// and so does a conv with fewer than Nm taps (ResNet18's 1x1
	// downsample shortcuts).
	cfg := core.DefaultConfig()
	for _, m := range nn.Benchmarks() {
		for _, f := range CheckModel(cfg, m).Layers {
			l := f.Layer
			block := l.Kind == nn.Pointwise || l.Kind == nn.FC || l.KY*l.KX < cfg.Nm
			if f.InputBandwidthOK == block {
				t.Errorf("%s/%s: input stream %.1f GB/s flagged %v, block layout %v",
					m.Name, l.Name, f.InputBandwidth/1e9, !f.InputBandwidthOK, block)
			}
			if !f.WeightBandwidthOK {
				t.Errorf("%s/%s: weight stream %.1f GB/s exceeds the cache",
					m.Name, l.Name, f.WeightBandwidth/1e9)
			}
		}
	}
}

func TestPoolingIsAlwaysFeasible(t *testing.T) {
	f := CheckLayer(core.DefaultConfig(), nn.Layer{
		Kind: nn.MaxPoolKind, InZ: 64, InY: 28, InX: 28, OutZ: 64, KY: 2, KX: 2, Stride: 2,
	})
	if !f.KernelCacheFits || !f.InputBandwidthOK || !f.GlobalBufferFits {
		t.Error("pooling layers are trivially feasible")
	}
}

func TestGroupedKernelBytes(t *testing.T) {
	// AlexNet conv2 (grouped): kernel depth is 48, not 96.
	f := CheckLayer(core.DefaultConfig(), nn.Layer{
		Kind: nn.Conv, InZ: 96, InY: 27, InX: 27, OutZ: 256, KY: 5, KX: 5, Stride: 1, Pad: 2, Groups: 2,
	})
	if f.KernelBytes != 25*48 {
		t.Errorf("grouped kernel bytes = %d, want %d", f.KernelBytes, 25*48)
	}
}

func TestFeasibilityString(t *testing.T) {
	if CheckModel(core.DefaultConfig(), nn.MobileNet()).String() == "" {
		t.Error("String")
	}
}
