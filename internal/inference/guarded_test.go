package inference

import (
	"math"
	"math/rand"
	"testing"

	"albireo/internal/core"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

func TestGuardPassesHealthyLayers(t *testing.T) {
	t.Parallel()
	// A healthy chip under a generous budget never falls back, and the
	// guarded output is bit-identical to the raw analog output.
	net := TinyCNN(3, 16, 42)
	in := tensor.RandomVolume(3, 16, 16, 6000)
	raw := net.Run(NewAnalog(core.DefaultConfig()), in)
	g := Guard(NewAnalog(core.DefaultConfig()), Exact{}, 1.0)
	guarded := net.Run(g, in)
	if g.Fallbacks() != 0 {
		t.Fatalf("healthy run fell back %d times", g.Fallbacks())
	}
	if g.Checks() == 0 {
		t.Fatal("guard should sample layers")
	}
	for i := range raw {
		if raw[i] != guarded[i] {
			t.Fatalf("guarded healthy output diverged at %d", i)
		}
	}
}

func TestGuardFallsBackOverBudget(t *testing.T) {
	t.Parallel()
	// Wreck a unit without quarantining it: the guard catches the
	// corrupted layers and reroutes them to the exact reference, so the
	// final logits match the digital network closely.
	analog := NewAnalog(core.DefaultConfig())
	unit := analog.Chip.Groups()[0].Units()[0]
	for tap := 0; tap < 9; tap++ {
		unit.InjectFault(core.Fault{Kind: core.StuckMZM, Tap: tap, Value: 1})
	}
	net := TinyCNN(3, 16, 42)
	in := tensor.RandomVolume(3, 16, 16, 6100)

	reg := obs.NewRegistry()
	trace := obs.NewTrace()
	g := Guard(analog, Exact{}, 0.5).Instrument(reg, trace)
	got := net.Run(g, in)
	if g.Fallbacks() == 0 {
		t.Fatal("corrupted layers should exceed the budget")
	}
	want := net.Run(Exact{}, in)
	if Argmax(got) != Argmax(want) {
		t.Error("guarded inference should track the exact classification")
	}
	snap := reg.Snapshot()
	if snap.SumCounters(MetricGuardChecks) != g.Checks() {
		t.Error("check counter")
	}
	if snap.SumCounters(MetricGuardFallbacks) != g.Fallbacks() {
		t.Error("fallback counter")
	}
	// Every checked layer lands in the relative-divergence histogram.
	if h, ok := snap.Histograms[MetricLayerDivergence]; !ok || h.Count != g.Checks() || h.Sum <= 0 {
		t.Errorf("divergence histogram missing, miscounted or zero: %+v", snap.Histograms)
	}
	if trace.CountByKind()["backend-fallback"] != g.Fallbacks() {
		t.Error("each fallback should emit a backend-fallback event")
	}
}

func TestGuardIsDeterministic(t *testing.T) {
	t.Parallel()
	run := func() []float64 {
		analog := NewAnalog(core.DefaultConfig())
		analog.Chip.Groups()[2].Units()[0].InjectFault(core.Fault{Kind: core.DeadRing, Tap: 4, Column: 2})
		g := Guard(analog, Exact{}, 0.02)
		return TinyCNN(3, 16, 42).Run(g, tensor.RandomVolume(3, 16, 16, 6300))
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("guarded runs diverged at %d", i)
		}
	}
}

// TestGuardDivergenceUnchanged pins the divergence the histogram
// observes to its definition, RMS(out - ref) / RMS(ref - 0): the
// allocation-free scale must give the same bits, including for
// negative and signed-zero references and the all-zero reference
// scored on absolute RMS.
func TestGuardDivergenceUnchanged(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		out, ref := make([]float64, n), make([]float64, n)
		for i := range ref {
			out[i] = rng.NormFloat64() * 3
			switch {
			case trial%10 == 0:
				// all-zero reference
			case rng.Intn(8) == 0:
				ref[i] = math.Copysign(0, -1)
			default:
				ref[i] = rng.NormFloat64() * 3
			}
		}
		want := rms(out, ref)
		if scale := rms(ref, make([]float64, n)); scale > 0 {
			want /= scale
		}
		reg := obs.NewRegistry()
		g := Guard(Exact{}, Exact{}, math.Inf(1)).Instrument(reg, nil)
		g.guard("conv", out, ref)
		h := reg.Snapshot().Histograms[MetricLayerDivergence]
		if h.Count != 1 || math.Float64bits(h.Sum) != math.Float64bits(want) {
			t.Fatalf("trial %d: histogram observed %v (count %d), want %v", trial, h.Sum, h.Count, want)
		}
	}
	v := make([]float64, 1152)
	if allocs := testing.AllocsPerRun(10, func() { rmsMagnitude(v) }); allocs != 0 {
		t.Errorf("rmsMagnitude allocates %v times per call", allocs)
	}
}

// TestGuardDoesNotAllocate checks that an instrumented guard scores a
// layer, and falls one back, without allocating: Instrument resolves
// the metric handles once, not per checked layer.
func TestGuardDoesNotAllocate(t *testing.T) {
	out, ref := make([]float64, 1152), make([]float64, 1152)
	for i := range ref {
		ref[i] = float64(i%7) - 3
		out[i] = ref[i] + 0.01
	}
	for _, budget := range []float64{math.Inf(1), 0} {
		reg := obs.NewRegistry()
		g := Guard(Exact{}, Exact{}, budget).Instrument(reg, nil)
		if allocs := testing.AllocsPerRun(10, func() { g.guard("conv", out, ref) }); allocs != 0 {
			t.Errorf("budget %g: instrumented guard allocates %v times per layer", budget, allocs)
		}
		snap := reg.Snapshot()
		if snap.SumCounters(MetricGuardChecks) != g.Checks() || snap.SumCounters(MetricGuardFallbacks) != g.Fallbacks() {
			t.Errorf("budget %g: registry counters disagree with the guard's own", budget)
		}
	}
}
