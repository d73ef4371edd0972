package core

import (
	"math"
	"testing"

	"albireo/internal/tensor"
)

// faultFixture returns a uniform all-ones input field and a simple
// weight vector for fault experiments.
func faultFixture(p *PLCU) ([]float64, [][]float64) {
	field := make([][]float64, 3)
	for i := range field {
		field[i] = []float64{1, 1, 1, 1, 1, 1, 1}
	}
	weights := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	return weights, fieldAVals(p.cfg, field)
}

func TestStuckMZMPinsTap(t *testing.T) {
	t.Parallel()
	p := NewPLCU(idealConfig())
	weights, avals := faultFixture(p)
	healthy := dot(p, weights, avals)

	// Stick tap 0 at full transmission: every column gains the
	// difference between 1.0 and 0.5 on that tap.
	p.InjectFault(Fault{Kind: StuckMZM, Tap: 0, Value: 1.0})
	faulty := dot(p, weights, avals)
	for d := range healthy {
		want := healthy[d] + 0.5
		if math.Abs(faulty[d]-want) > 0.05 {
			t.Errorf("column %d: stuck MZM should add 0.5: healthy %.3f faulty %.3f", d, healthy[d], faulty[d])
		}
	}

	// A stuck-at-zero modulator silences the tap.
	p.ClearFaults()
	p.InjectFault(Fault{Kind: StuckMZM, Tap: 0, Value: 0})
	dark := dot(p, weights, avals)
	for d := range healthy {
		want := healthy[d] - 0.5
		if math.Abs(dark[d]-want) > 0.05 {
			t.Errorf("column %d: stuck-at-zero should remove the tap", d)
		}
	}
}

func TestStuckMZMPreservesSignRouting(t *testing.T) {
	t.Parallel()
	// The rings still route by the programmed sign, so a negative
	// weight with a stuck magnitude stays on the negative waveguide.
	p := NewPLCU(idealConfig())
	weights := []float64{-0.25, 0, 0, 0, 0, 0, 0, 0, 0}
	avals := make([][]float64, 9)
	for i := range avals {
		avals[i] = []float64{1, 1, 1, 1, 1}
	}
	p.InjectFault(Fault{Kind: StuckMZM, Tap: 0, Value: 1.0})
	out := dot(p, weights, avals)
	if out[0] > -0.9 {
		t.Errorf("stuck negative tap should contribute -1.0, got %.3f", out[0])
	}
}

func TestDeadRingKillsOneColumn(t *testing.T) {
	t.Parallel()
	p := NewPLCU(idealConfig())
	weights, avals := faultFixture(p)
	healthy := dot(p, weights, avals)

	p.InjectFault(Fault{Kind: DeadRing, Tap: 4, Column: 2})
	faulty := dot(p, weights, avals)
	// Column 2 loses tap 4's contribution (0.5); others unchanged.
	for d := range healthy {
		if d == 2 {
			if math.Abs(faulty[d]-(healthy[d]-0.5)) > 0.05 {
				t.Errorf("dead ring should drop 0.5 from column 2, got %.3f vs %.3f", faulty[d], healthy[d])
			}
			continue
		}
		if math.Abs(faulty[d]-healthy[d]) > 1e-9 {
			t.Errorf("column %d should be unaffected by a column-2 ring fault", d)
		}
	}
}

func TestDetunedRingPartialLoss(t *testing.T) {
	t.Parallel()
	p := NewPLCU(idealConfig())
	weights, avals := faultFixture(p)
	healthy := dot(p, weights, avals)

	p.InjectFault(Fault{Kind: DetunedRing, Tap: 0, Column: 0, Value: 0.5})
	faulty := dot(p, weights, avals)
	// Column 0 loses half of tap 0's 0.5 contribution.
	if math.Abs(faulty[0]-(healthy[0]-0.25)) > 0.05 {
		t.Errorf("detuned ring should drop 0.25, got %.3f vs %.3f", faulty[0], healthy[0])
	}
}

func TestDriftingDetunedRingWorsensOverCycles(t *testing.T) {
	t.Parallel()
	// A drifting detuned ring starts at full coupling and loses Drift
	// of residual per modulation cycle: early cycles look healthy, late
	// cycles look dead - the progressive failure BIST sweeps chase.
	p := NewPLCU(idealConfig())
	weights, avals := faultFixture(p)
	healthy := dot(NewPLCU(idealConfig()), weights, avals)

	p.InjectFault(Fault{Kind: DetunedRing, Tap: 4, Column: 2, Value: 1.0, Drift: 0.01})
	first := dot(p, weights, avals) // cycle advances to 1 during this call
	if math.Abs(first[2]-healthy[2]) > 0.06 {
		t.Errorf("fresh drifting ring should still look healthy: %.3f vs %.3f", first[2], healthy[2])
	}
	for p.Cycles() < 100 { // run the residual down to zero
		dot(p, weights, avals)
	}
	late := dot(p, weights, avals)
	if math.Abs(late[2]-(healthy[2]-0.5)) > 0.05 {
		t.Errorf("fully drifted ring should read dead: got %.3f, healthy %.3f", late[2], healthy[2])
	}
	// Other columns never degrade.
	if math.Abs(late[0]-healthy[0]) > 1e-9 {
		t.Error("drift must stay confined to its (tap, column)")
	}
}

func TestFaultAccounting(t *testing.T) {
	t.Parallel()
	p := NewPLCU(idealConfig())
	p.InjectFault(Fault{Kind: DeadRing, Tap: 1, Column: 1})
	p.InjectFault(Fault{Kind: StuckMZM, Tap: 2, Value: 0.7})
	if len(p.faults) != 2 {
		t.Error("fault list should accumulate")
	}
	p.ClearFaults()
	if len(p.faults) != 0 {
		t.Error("ClearFaults should empty the list")
	}
	if (Fault{Kind: DeadRing}).String() == "" || FaultKind(99).String() != "unknown" {
		t.Error("fault display")
	}
	if (Fault{Kind: DetunedRing, Value: 1, Drift: 0.5}).String() == (Fault{Kind: DetunedRing, Value: 1}).String() {
		t.Error("drifting faults should display their rate")
	}
}

func TestFaultValidation(t *testing.T) {
	t.Parallel()
	p := NewPLCU(idealConfig())
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	expectPanic("bad tap", func() { p.InjectFault(Fault{Kind: StuckMZM, Tap: 99}) })
	expectPanic("bad column", func() { p.InjectFault(Fault{Kind: DeadRing, Tap: 0, Column: 9}) })
	// Value ranges: an MZM transmits a fraction of its input and a
	// detuned ring couples a fraction, so transfers outside [0,1] are
	// unphysical and rejected rather than silently accepted.
	expectPanic("negative stuck transfer", func() { p.InjectFault(Fault{Kind: StuckMZM, Tap: 0, Value: -0.5}) })
	expectPanic("over-unity stuck transfer", func() { p.InjectFault(Fault{Kind: StuckMZM, Tap: 0, Value: 1.5}) })
	expectPanic("negative residual", func() { p.InjectFault(Fault{Kind: DetunedRing, Tap: 0, Column: 0, Value: -0.1}) })
	expectPanic("over-unity residual", func() { p.InjectFault(Fault{Kind: DetunedRing, Tap: 0, Column: 0, Value: 2}) })
	expectPanic("negative drift", func() { p.InjectFault(Fault{Kind: DetunedRing, Tap: 0, Column: 0, Value: 1, Drift: -0.1}) })
	// NaN passes both range comparisons, so it is tested for
	// explicitly: a NaN ring gain would make the datapath's all-zero
	// tap skip observable.
	expectPanic("NaN stuck transfer", func() { p.InjectFault(Fault{Kind: StuckMZM, Tap: 0, Value: math.NaN()}) })
	expectPanic("NaN residual", func() { p.InjectFault(Fault{Kind: DetunedRing, Tap: 0, Column: 0, Value: math.NaN()}) })
	expectPanic("NaN drift", func() { p.InjectFault(Fault{Kind: DetunedRing, Tap: 0, Column: 0, Value: 1, Drift: math.NaN()}) })
	expectPanic("drift on non-detuned", func() { p.InjectFault(Fault{Kind: DeadRing, Tap: 0, Column: 0, Drift: 0.1}) })
	if len(p.faults) != 0 {
		t.Error("rejected faults must not be recorded")
	}
}

func TestFaultImpactOnConvolution(t *testing.T) {
	t.Parallel()
	// Chip-level failure injection: kill one ring in one PLCU of one
	// PLCG and verify that only that group's kernels degrade.
	cfg := idealConfig()
	chip := NewChip(cfg)
	chip.Groups()[0].Units()[0].InjectFault(Fault{Kind: DeadRing, Tap: 4, Column: 0})

	// Kernel 0 maps to group 0 (round robin); kernel 1 to group 1.
	a := tensor.NewVolume(3, 8, 8)
	for i := range a.Data {
		a.Data[i] = 1
	}
	w := tensor.NewKernels(2, 3, 3, 3)
	for i := range w.Data {
		w.Data[i] = 0.5
	}
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}
	out := chip.Conv(a, w, cc, false)
	ref := NewChip(cfg).Conv(a, w, cc, false)

	var worst0, worst1 float64
	for y := 0; y < out.Y; y++ {
		for x := 0; x < out.X; x++ {
			if d := math.Abs(out.At(0, y, x) - ref.At(0, y, x)); d > worst0 {
				worst0 = d
			}
			if d := math.Abs(out.At(1, y, x) - ref.At(1, y, x)); d > worst1 {
				worst1 = d
			}
		}
	}
	if worst0 < 0.1 {
		t.Errorf("kernel 0 should be visibly degraded by the fault, worst delta %.4f", worst0)
	}
	if worst1 > 1e-9 {
		t.Errorf("kernel 1 should be untouched (different PLCG), worst delta %.4f", worst1)
	}
}

// worstDelta returns the max absolute per-element difference between
// two equal-shaped volumes, per channel m.
func worstDelta(a, b *tensor.Volume, m int) float64 {
	var worst float64
	for y := 0; y < a.Y; y++ {
		for x := 0; x < a.X; x++ {
			if d := math.Abs(a.At(m, y, x) - b.At(m, y, x)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestFaultPropagatesThroughPointwise(t *testing.T) {
	t.Parallel()
	// The pointwise mapping spreads input channels across taps, so a
	// dead ring in unit 0 of group 0 corrupts kernel 0's output pixels
	// in the faulted column positions while kernel 1 (group 1) is
	// untouched.
	cfg := idealConfig()
	a := tensor.NewVolume(3, 4, 4)
	for i := range a.Data {
		a.Data[i] = 1
	}
	w := tensor.NewKernels(2, 3, 1, 1)
	for i := range w.Data {
		w.Data[i] = 0.5
	}
	chip := NewChip(cfg)
	chip.Groups()[0].Units()[0].InjectFault(Fault{Kind: DeadRing, Tap: 0, Column: 0})
	out := chip.Pointwise(a, w, false)
	ref := NewChip(cfg).Pointwise(a, w, false)
	if worstDelta(out, ref, 0) < 0.05 {
		t.Error("pointwise kernel 0 should be degraded by its group's fault")
	}
	if worstDelta(out, ref, 1) > 1e-9 {
		t.Error("pointwise kernel 1 should be untouched (different PLCG)")
	}
}

func TestFaultPropagatesThroughDepthwise(t *testing.T) {
	t.Parallel()
	// Depthwise maps channel z onto group z%Ng using one PLCU slot
	// (the first healthy unit), so a unit-0 fault in group 0 corrupts
	// only channel 0.
	cfg := idealConfig()
	a := tensor.NewVolume(3, 6, 6)
	for i := range a.Data {
		a.Data[i] = 1
	}
	w := tensor.NewKernels(3, 1, 3, 3)
	for i := range w.Data {
		w.Data[i] = 0.5
	}
	cc := tensor.ConvConfig{Pad: 1, Depthwise: true}
	chip := NewChip(cfg)
	chip.Groups()[0].Units()[0].InjectFault(Fault{Kind: DeadRing, Tap: 4, Column: 0})
	out := chip.Conv(a, w, cc, false)
	ref := NewChip(cfg).Conv(a, w, cc, false)
	if worstDelta(out, ref, 0) < 0.1 {
		t.Error("depthwise channel 0 should be degraded by its group's fault")
	}
	for z := 1; z < 3; z++ {
		if worstDelta(out, ref, z) > 1e-9 {
			t.Errorf("depthwise channel %d should be untouched", z)
		}
	}
}

func TestFaultPropagatesThroughGroupedConv(t *testing.T) {
	t.Parallel()
	// Grouped convolution runs each channel group as an independent
	// dense conv; every sub-conv restarts its kernel round-robin at
	// PLCG 0, so a group-0 fault touches the first kernel of *each*
	// channel group (m=0 and m=2 here) and no others.
	cfg := idealConfig()
	a := tensor.NewVolume(4, 6, 6)
	for i := range a.Data {
		a.Data[i] = 1
	}
	w := tensor.NewKernels(4, 2, 3, 3)
	for i := range w.Data {
		w.Data[i] = 0.5
	}
	cc := tensor.ConvConfig{Pad: 1, Groups: 2}
	chip := NewChip(cfg)
	chip.Groups()[0].Units()[0].InjectFault(Fault{Kind: DeadRing, Tap: 4, Column: 0})
	out := chip.Conv(a, w, cc, false)
	ref := NewChip(cfg).Conv(a, w, cc, false)
	for _, m := range []int{0, 2} {
		if worstDelta(out, ref, m) < 0.1 {
			t.Errorf("grouped-conv kernel %d (first of its channel group) should be degraded", m)
		}
	}
	for _, m := range []int{1, 3} {
		if worstDelta(out, ref, m) > 1e-9 {
			t.Errorf("grouped-conv kernel %d should be untouched", m)
		}
	}
}

func TestConvConcurrentWithFaultsBitIdentical(t *testing.T) {
	// Faults are deterministic transfer modifiers, so the lane path
	// must reproduce the one-lane faulty output bit for bit (noise
	// enabled: the per-group noise streams see the same call order
	// either way, and the drifting ring's cycle counter is per unit).
	faulty := func() *Chip {
		c := NewChip(DefaultConfig())
		c.Groups()[0].Units()[0].InjectFault(Fault{Kind: DeadRing, Tap: 4, Column: 1})
		c.Groups()[1].Units()[1].InjectFault(Fault{Kind: StuckMZM, Tap: 2, Value: 0.8})
		c.Groups()[2].Units()[2].InjectFault(Fault{Kind: DetunedRing, Tap: 0, Column: 0, Value: 0.9, Drift: 1e-4})
		return c
	}
	a := tensor.RandomVolume(6, 10, 10, 311)
	w := tensor.RandomKernels(13, 6, 3, 3, 312)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}
	seq := oneLane(func() *tensor.Volume { return faulty().Conv(a, w, cc, true) })
	par := manyLanes(func() *tensor.Volume { return faulty().Conv(a, w, cc, true) })
	assertSameBits(t, "faulty conv", seq.Data, par.Data)
}
