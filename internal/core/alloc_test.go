package core

import (
	"testing"

	"albireo/internal/tensor"
)

// The zero-allocation contract: after the first layer warms the
// weight-program cache and the scratch arenas, the analog hot path
// performs no heap allocation per cycle. These tests pin that with
// testing.AllocsPerRun so an accidental make() or escaping closure in
// the hot path fails CI rather than silently costing 2-3x throughput
// (the pre-optimization pipeline allocated ~37k times per small conv
// layer).

func hotInputs(cfg Config) ([]float64, [][]float64) {
	weights := make([]float64, cfg.Nm)
	avals := make([][]float64, cfg.Nm)
	for t := 0; t < cfg.Nm; t++ {
		weights[t] = float64(t%5)/5 - 0.4
		row := make([]float64, cfg.Nd)
		for d := range row {
			row[d] = float64((t+d)%7) / 7
		}
		avals[t] = row
	}
	return weights, avals
}

func TestCurrentsIntoAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPLCU(cfg)
	weights, avals := hotInputs(cfg)
	dst := make([]float64, cfg.Nd)
	p.CurrentsInto(dst, weights, avals) // warm any lazy runtime state
	if avg := testing.AllocsPerRun(200, func() {
		p.CurrentsInto(dst, weights, avals)
	}); avg != 0 {
		t.Fatalf("CurrentsInto allocates %.1f times per cycle, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		p.DotInto(dst, weights, avals)
	}); avg != 0 {
		t.Fatalf("DotInto allocates %.1f times per cycle, want 0", avg)
	}
}

func TestStepPrequantizedAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	g := NewPLCG(cfg)
	weights := make([][]float64, cfg.Nu)
	avals := make([][]float64, cfg.Nu)
	for u := 0; u < cfg.Nu; u++ {
		var rows [][]float64
		weights[u], rows = hotInputs(cfg)
		for _, row := range rows {
			avals[u] = append(avals[u], row...)
		}
	}
	dst := make([]float64, cfg.Nd)
	g.stepPrequantized(dst, weights, avals, cfg.Nd)
	if avg := testing.AllocsPerRun(200, func() {
		g.stepPrequantized(dst, weights, avals, cfg.Nd)
	}); avg != 0 {
		t.Fatalf("stepPrequantized allocates %.1f times per cycle, want 0", avg)
	}
}

func TestConvSteadyStateAllocs(t *testing.T) {
	// A warm chip re-running the same layer must allocate only the
	// caller-owned output volume (its struct and data array): the
	// weight program is cached, the activation scratch is sized, and
	// every per-tile buffer comes from the arenas.
	chip := NewChip(DefaultConfig())
	a := tensor.RandomVolume(6, 16, 16, 1)
	w := tensor.RandomKernels(4, 6, 3, 3, 2)
	ccfg := tensor.ConvConfig{Stride: 1, Pad: 1}
	chip.Conv(a, w, ccfg, true) // compile the program, grow the scratch
	if avg := testing.AllocsPerRun(5, func() {
		chip.Conv(a, w, ccfg, true)
	}); avg > 2 {
		t.Fatalf("steady-state Conv allocates %.1f times per layer, want <=2 (the output volume)", avg)
	}
}

func TestConvSteadyStateAllocsAcrossMappings(t *testing.T) {
	// Depthwise, pointwise, the live-tap route and FC share the arenas
	// and the program cache; their steady state must match Conv's.
	chip := NewChip(DefaultConfig())
	dwA := tensor.RandomVolume(5, 8, 8, 21)
	dwW := tensor.RandomKernels(5, 1, 3, 3, 22)
	dwCfg := tensor.ConvConfig{Stride: 1, Pad: 1, Depthwise: true}
	pwA := tensor.RandomVolume(6, 7, 7, 41)
	pwW := tensor.RandomKernels(7, 6, 1, 1, 42)
	fcA := tensor.RandomVolume(4, 5, 5, 51)
	fcW := tensor.RandomKernels(6, 4, 5, 5, 52)
	chip.Conv(dwA, dwW, dwCfg, true)
	chip.Pointwise(pwA, pwW, true)
	chip.FullyConnected(fcA, fcW, true)

	if avg := testing.AllocsPerRun(5, func() {
		chip.Conv(dwA, dwW, dwCfg, true)
	}); avg > 2 {
		t.Errorf("steady-state depthwise allocates %.1f times per layer, want <=2", avg)
	}
	if avg := testing.AllocsPerRun(5, func() {
		chip.Pointwise(pwA, pwW, true)
	}); avg > 2 {
		t.Errorf("steady-state pointwise allocates %.1f times per layer, want <=2", avg)
	}
	// The live-tap block route: its gather volume, kernel-bank view
	// and program are cached like the others.
	for _, lt := range []struct {
		a  *tensor.Volume
		w  *tensor.Kernels
		cc tensor.ConvConfig
	}{
		{tensor.RandomVolume(16, 6, 6, 61), tensor.RandomKernels(8, 16, 1, 1, 62), tensor.ConvConfig{Stride: 2}},
		{tensor.RandomVolume(16, 1, 1, 63), tensor.RandomKernels(8, 16, 3, 3, 64), tensor.ConvConfig{Pad: 1}},
		{tensor.RandomVolume(16, 2, 2, 65), tensor.RandomKernels(8, 16, 3, 3, 66), tensor.ConvConfig{Stride: 2, Pad: 1}},
	} {
		chip.Conv(lt.a, lt.w, lt.cc, true)
		if avg := testing.AllocsPerRun(5, func() {
			chip.Conv(lt.a, lt.w, lt.cc, true)
		}); avg > 2 {
			t.Errorf("steady-state live-tap conv %+v allocates %.1f times per layer, want <=2", lt.cc, avg)
		}
	}
	if avg := testing.AllocsPerRun(5, func() {
		chip.FullyConnected(fcA, fcW, true)
	}); avg > 1 {
		t.Errorf("steady-state FC allocates %.1f times per layer, want <=1 (the output slice)", avg)
	}
}
