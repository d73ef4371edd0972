package sim

import (
	"math"
	"testing"

	"albireo/internal/core"
	"albireo/internal/memory"
	"albireo/internal/nn"
)

func TestCyclesMatchAnalyticMapping(t *testing.T) {
	// The schedule walker and the analytic mapping model must agree
	// exactly on cycle counts for every benchmark layer.
	cfg := core.DefaultConfig()
	for _, m := range nn.Benchmarks() {
		mapping := cfg.MapModel(m)
		stats := SimulateModel(cfg, DepthFirst, m)
		if stats.Cycles != mapping.TotalCycles {
			t.Errorf("%s: sim %d cycles, mapping %d", m.Name, stats.Cycles, mapping.TotalCycles)
		}
	}
}

func TestDepthFirstHasNoPsumTraffic(t *testing.T) {
	// Section III-B: "This creates no partial sum writes back to
	// memory".
	for _, m := range nn.Benchmarks() {
		for _, st := range SimulateModel(core.DefaultConfig(), DepthFirst, m).Layers {
			if st.PsumReadBytes != 0 || st.PsumWriteBytes != 0 {
				t.Fatalf("%s/%s: depth-first dataflow should carry no psum traffic",
					m.Name, st.Layer.Name)
			}
		}
	}
}

func TestWeightStationaryPsumCost(t *testing.T) {
	// The ablation: weight-stationary spills partials for every
	// multi-group layer and must move more total bytes on deep nets.
	df, ws := Compare(core.DefaultConfig(), nn.VGG16())
	if ws.Cycles != df.Cycles {
		t.Error("dataflow choice should not change compute cycles")
	}
	var psum int64
	for _, st := range ws.Layers {
		psum += st.PsumReadBytes + st.PsumWriteBytes
	}
	if psum == 0 {
		t.Fatal("weight-stationary should generate psum traffic on VGG16")
	}
	if ws.SRAMEnergy <= df.SRAMEnergy {
		t.Errorf("weight-stationary should cost more data-movement energy: %.3g vs %.3g",
			ws.SRAMEnergy, df.SRAMEnergy)
	}
}

func TestWeightStationarySavesWeightTraffic(t *testing.T) {
	// The flip side: holding weights across the tile sweep reads the
	// kernel caches far less often.
	df, ws := Compare(core.DefaultConfig(), nn.VGG16())
	var dfW, wsW int64
	for _, st := range df.Layers {
		dfW += st.WeightBytes
	}
	for _, st := range ws.Layers {
		wsW += st.WeightBytes
	}
	if wsW >= dfW {
		t.Errorf("weight-stationary should read fewer weight bytes: %d vs %d", wsW, dfW)
	}
}

func TestSingleGroupLayerHasNoPsumEvenWS(t *testing.T) {
	// A layer with one channel group and one tap chunk finishes in a
	// single pass: nothing to spill even under weight-stationary.
	l := nn.Layer{Kind: nn.Conv, InZ: 3, InY: 8, InX: 8, OutZ: 4, KY: 3, KX: 3, Stride: 1, Pad: 1}
	st := SimulateLayer(core.DefaultConfig(), WeightStationary, l)
	if st.PsumWriteBytes != 0 {
		t.Error("single-group layer should not spill partials")
	}
}

func TestPoolingLayersAreFree(t *testing.T) {
	st := SimulateLayer(core.DefaultConfig(), DepthFirst, nn.Layer{Kind: nn.MaxPoolKind, InZ: 64, InY: 28, InX: 28, OutZ: 64, KY: 2, KX: 2, Stride: 2})
	if st.Cycles != 0 || st.TotalTraffic() != 0 {
		t.Error("pooling should cost neither cycles nor photonic-path traffic")
	}
}

func TestOutputBytesMatchActivations(t *testing.T) {
	cfg := core.DefaultConfig()
	l := nn.Layer{Kind: nn.Conv, InZ: 16, InY: 14, InX: 14, OutZ: 32, KY: 3, KX: 3, Stride: 1, Pad: 1}
	st := SimulateLayer(cfg, DepthFirst, l)
	if st.OutputBytes != 32*14*14 {
		t.Errorf("output bytes = %d, want %d", st.OutputBytes, 32*14*14)
	}
	fc := nn.Layer{Kind: nn.FC, InZ: 512, InY: 1, InX: 1, OutZ: 1000, KY: 1, KX: 1}
	if got := SimulateLayer(cfg, DepthFirst, fc).OutputBytes; got != 1000 {
		t.Errorf("FC output bytes = %d, want 1000", got)
	}
}

func TestModelStatsAggregation(t *testing.T) {
	ms := SimulateModel(core.DefaultConfig(), DepthFirst, nn.MobileNet())
	var cyc, traffic int64
	for _, st := range ms.Layers {
		cyc += st.Cycles
		traffic += st.TotalTraffic()
	}
	if cyc != ms.Cycles || traffic != ms.Traffic {
		t.Error("model totals must equal layer sums")
	}
	if ms.String() == "" {
		t.Error("String")
	}
	if DepthFirst.String() != "depth-first" || WeightStationary.String() != "weight-stationary" ||
		Dataflow(9).String() != "unknown" {
		t.Error("dataflow names")
	}
}

func TestDataMovementDominanceClaim(t *testing.T) {
	// Horowitz (cited as [25]): data movement can consume magnitudes
	// more energy than computation. Check that the weight-stationary
	// psum energy alone exceeds the depth-first total on a deep net -
	// the quantitative form of the paper's motivation.
	df, ws := Compare(core.DefaultConfig(), nn.VGG16())
	psumEnergy := ws.SRAMEnergy - df.SRAMEnergy // lower bound on psum cost
	if psumEnergy < df.SRAMEnergy*0.2 {
		t.Errorf("psum spill energy (%.3g J) should be a significant fraction of baseline traffic (%.3g J)",
			psumEnergy, df.SRAMEnergy)
	}
}

func TestSRAMEnergyPricesTraffic(t *testing.T) {
	// Inputs, partial sums and outputs are priced at the global
	// buffer, weights at the kernel caches, and writes as writes.
	gb, kc := memory.GlobalBuffer(), memory.KernelCache()
	for _, df := range []Dataflow{DepthFirst, WeightStationary} {
		ms := SimulateModel(core.DefaultConfig(), df, nn.VGG16())
		var want float64
		for _, st := range ms.Layers {
			want += gb.ReadEnergy(int(st.InputBytes+st.PsumReadBytes)) +
				kc.ReadEnergy(int(st.WeightBytes)) +
				gb.WriteEnergy(int(st.PsumWriteBytes+st.OutputBytes))
		}
		if math.Abs(ms.SRAMEnergy-want) > 1e-6*want {
			t.Errorf("%s: SRAM energy %g J, traffic priced at %g J", df, ms.SRAMEnergy, want)
		}
	}
}
