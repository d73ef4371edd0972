package inference

import (
	"math"
	"testing"

	"albireo/internal/core"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

func TestObservedBackendTelemetry(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	ob := Observe(NewAnalog(core.DefaultConfig()), reg, tr)

	a := tensor.RandomVolume(3, 8, 8, 31)
	w := tensor.RandomKernels(4, 3, 3, 3, 32)
	out := ob.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
	fcW := tensor.RandomKernels(5, 4, 8, 8, 33)
	logits := ob.FullyConnected(out, fcW, false)
	if len(logits) != 5 {
		t.Fatalf("wrapper changed FC output arity: %d", len(logits))
	}

	s := reg.Snapshot()
	name := ob.Name()
	if got := s.Counters[MetricInferenceLayers+`{backend="`+name+`",kind="conv"}`]; got != 1 {
		t.Errorf("conv layer count = %d: %v", got, s.Counters)
	}
	if got := s.Counters[MetricInferenceLayers+`{backend="`+name+`",kind="fc"}`]; got != 1 {
		t.Errorf("fc layer count = %d: %v", got, s.Counters)
	}
	kinds := tr.CountByKind()
	if kinds["span-start"] != 2 || kinds["span-end"] != 2 {
		t.Errorf("want one span per layer: %v", kinds)
	}
}

func TestObservedMatchesWrappedBackend(t *testing.T) {
	t.Parallel()
	// The wrapper must be numerically transparent: same outputs as the
	// wrapped backend alone.
	a := tensor.RandomVolume(3, 8, 8, 41)
	w := tensor.RandomKernels(2, 3, 3, 3, 42)

	plain := NewAnalog(core.DefaultConfig())
	wrapped := Observe(NewAnalog(core.DefaultConfig()), obs.NewRegistry(), nil)

	po := plain.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
	wo := wrapped.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
	for i := range po.Data {
		if po.Data[i] != wo.Data[i] {
			t.Fatalf("wrapper perturbed output at %d: %g vs %g", i, po.Data[i], wo.Data[i])
		}
	}
}

func TestObservedNilInstruments(t *testing.T) {
	t.Parallel()
	// All-nil instruments: the wrapper degrades to a pass-through.
	ob := Observe(Exact{}, nil, nil)
	a := tensor.RandomVolume(2, 4, 4, 51)
	w := tensor.RandomKernels(2, 2, 3, 3, 52)
	out := ob.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, false)
	want := Exact{}.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, false)
	for i := range want.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatal("nil-instrumented wrapper must be a pass-through")
		}
	}
	if ob.Name() != (Exact{}).Name() {
		t.Fatal("wrapper must forward the backend name")
	}
}

func TestObservedCountersDoNotAllocate(t *testing.T) {
	t.Parallel()
	// Observe resolves one counter per kind, so counting a served
	// layer neither looks the series up nor builds the guarded name.
	reg := obs.NewRegistry()
	ob := Observe(Guard(Exact{}, Exact{}, 0), reg, nil)
	const runs = 10
	if allocs := testing.AllocsPerRun(runs, func() { ob.convs.Inc(); ob.fcs.Inc(); ob.gemms.Inc() }); allocs != 0 {
		t.Errorf("counting a layer allocates %v times", allocs)
	}
	s := reg.Snapshot()
	for _, kind := range []string{"conv", "fc", "gemm"} {
		// AllocsPerRun adds one warm-up call.
		if got := s.Counters[MetricInferenceLayers+`{backend="guarded(exact)",kind="`+kind+`"}`]; got != runs+1 {
			t.Errorf("%s layer count = %d, want %d: %v", kind, got, runs+1, s.Counters)
		}
	}
}

func TestRMS(t *testing.T) {
	t.Parallel()
	if rms(nil, nil) != 0 || rms([]float64{1}, []float64{1, 2}) != 0 {
		t.Fatal("degenerate rms must be 0")
	}
	// one zero diff and one diff of 2 over two elements: sqrt(4/2)
	if got := rms([]float64{1, 2}, []float64{1, 4}); got != math.Sqrt(2) {
		t.Fatalf("rms = %g", got)
	}
}
