package core

import (
	"math"
	"testing"

	"albireo/internal/nn"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

func instrumentedChip(t *testing.T) (*Chip, *obs.Registry, *obs.Trace) {
	t.Helper()
	chip := NewChip(DefaultConfig())
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	chip.Instrument(reg, tr)
	return chip, reg, tr
}

// TestConvVsConcurrentTelemetryIdentical is the determinism invariant
// from the observability contract: Conv's lane path and the one-lane
// oracle must produce bit-identical outputs, bit-identical registry
// snapshots, and byte-identical traces on the same inputs.
func TestConvVsConcurrentTelemetryIdentical(t *testing.T) {
	a := tensor.RandomVolume(7, 12, 12, 3)
	w := tensor.RandomKernels(11, 7, 3, 3, 4)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}

	seq, seqReg, seqTr := instrumentedChip(t)
	outSeq := oneLane(func() *tensor.Volume { return seq.Conv(a, w, cc, true) })

	con, conReg, conTr := instrumentedChip(t)
	outCon := manyLanes(func() *tensor.Volume { return con.Conv(a, w, cc, true) })

	assertSameBits(t, "conv", outSeq.Data, outCon.Data)
	if !seqReg.Snapshot().Equal(conReg.Snapshot()) {
		t.Fatalf("registry snapshots differ:\nseq: %+v\ncon: %+v",
			seqReg.Snapshot().Counters, conReg.Snapshot().Counters)
	}
	assertSameTrace(t, seqTr, conTr)
}

// TestInstrumentationDoesNotPerturbOutputs proves attaching a registry
// and trace never changes numerics: the instrumented chip's Conv must
// be bit-identical to a bare chip's.
func TestInstrumentationDoesNotPerturbOutputs(t *testing.T) {
	t.Parallel()
	a := tensor.RandomVolume(5, 10, 10, 9)
	w := tensor.RandomKernels(6, 5, 3, 3, 10)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}

	bare := NewChip(DefaultConfig())
	outBare := bare.Conv(a, w, cc, false)

	ins, _, _ := instrumentedChip(t)
	outIns := ins.Conv(a, w, cc, false)

	for i := range outBare.Data {
		if outBare.Data[i] != outIns.Data[i] {
			t.Fatalf("instrumentation perturbed output at %d: %g vs %g",
				i, outBare.Data[i], outIns.Data[i])
		}
	}
}

// observe runs f on c with a fresh registry attached and returns the
// device counters it recorded.
func observe(c *Chip, f func(*Chip)) Activity {
	reg := obs.NewRegistry()
	c.Instrument(reg, nil)
	f(c)
	return ObservedActivity(reg.Snapshot())
}

// activityCase is one row of the activity oracle: a layer, the chip
// call that runs it, and the hand-written layout the closed form of
// checkActivityOracle counts it over.
type activityCase struct {
	name               string
	layer              nn.Layer
	run                func(*Chip)
	kernels            int
	lay                layout
	outY, outX, passes int
	// diverges marks a layer the chip runs off the model's schedule:
	// depthwise without packing, a GEMM without its negative pass.
	diverges bool
}

// activityOracle is the one table of layers whose device counters are
// held to the closed form: the dense conv rows, with uneven tiling in
// every loop dimension, and the rows of every other mapping. The
// layouts are written out here by hand, independently of
// Config.schedule: dense conv {Z, KY, KX}; depthwise one channel per
// kernel; pointwise, FC, GEMM, a live-tap conv and a degenerate 1x1
// conv the block layout's Nm x 1 view of their n-element kernels,
// {ceil(n/Nm), Nm, 1}, over one row of pixels. A signed GEMM runs two
// passes.
func activityOracle(cfg Config) (conv, others []activityCase) {
	nm := cfg.Nm
	ceil := func(a, b int) int { return (a + b - 1) / b }
	block := func(n int) layout { return layout{ceil(n, nm), nm, 1} }
	vol := func(z, y, x int) *tensor.Volume { return tensor.RandomVolume(z, y, x, 861) }
	ker := func(m, z, y, x int) *tensor.Kernels { return tensor.RandomKernels(m, z, y, x, 862) }
	signed, b := tensor.RandomMatrix(11, 23, 863), tensor.RandomMatrix(23, 13, 864)
	nonNeg := tensor.NewMatrix(signed.R, signed.C)
	for i, v := range signed.Data {
		nonNeg.Data[i] = math.Abs(v)
	}
	convLayer := func(z, y, x, m, k, stride, pad int) nn.Layer {
		return nn.Layer{Kind: nn.Conv, InZ: z, InY: y, InX: x, OutZ: m, KY: k, KX: k, Stride: stride, Pad: pad}
	}
	dw := nn.Layer{Kind: nn.Depthwise, InZ: 5, InY: 9, InX: 13, OutZ: 5, KY: 3, KX: 3, Pad: 1}
	dw2 := dw
	dw2.Stride = 2
	gemm := nn.Layer{Kind: nn.GEMM, InZ: 23, InY: 1, InX: 11, OutZ: 13, KY: 1, KX: 1}
	conv = []activityCase{
		{"conv3x3-small", convLayer(3, 8, 8, 4, 3, 1, 1),
			func(c *Chip) { c.Conv(vol(3, 8, 8), ker(4, 3, 3, 3), tensor.ConvConfig{Stride: 1, Pad: 1}, true) },
			4, layout{3, 3, 3}, 8, 8, 1, false},
		// z not divisible by Nu, outX not by Nd
		{"conv3x3", convLayer(7, 12, 11, 11, 3, 1, 1),
			func(c *Chip) { c.Conv(vol(7, 12, 11), ker(11, 7, 3, 3), tensor.ConvConfig{Pad: 1}, true) },
			11, layout{7, 3, 3}, 12, 11, 1, false},
		// taps > Nm: multiple chunks
		{"conv5x5-s2", convLayer(4, 16, 16, 5, 5, 2, 2),
			func(c *Chip) { c.Conv(vol(4, 16, 16), ker(5, 4, 5, 5), tensor.ConvConfig{Stride: 2, Pad: 2}, true) },
			5, layout{4, 5, 5}, 8, 8, 1, false},
		{"conv1x1-degenerate", convLayer(1, 6, 6, 1, 1, 1, 0),
			func(c *Chip) { c.Conv(vol(1, 6, 6), ker(1, 1, 1, 1), tensor.ConvConfig{Stride: 1}, true) },
			1, block(1), 1, 36, 1, false},
	}
	others = []activityCase{
		{"pointwise-full-tiles", nn.Layer{Kind: nn.Pointwise, InZ: 20, InY: 5, InX: 5, OutZ: 7, KY: 1, KX: 1},
			func(c *Chip) { c.Pointwise(vol(20, 5, 5), ker(7, 20, 1, 1), true) },
			7, block(20), 1, 25, 1, false},
		{"pointwise-tail-tile", nn.Layer{Kind: nn.Pointwise, InZ: 20, InY: 7, InX: 7, OutZ: 7, KY: 1, KX: 1},
			func(c *Chip) { c.Pointwise(vol(20, 7, 7), ker(7, 20, 1, 1), true) },
			7, block(20), 1, 49, 1, false},
		{"fc", nn.Layer{Kind: nn.FC, InZ: 4, InY: 5, InX: 5, OutZ: 6, KY: 1, KX: 1},
			func(c *Chip) { c.FullyConnected(vol(4, 5, 5), ker(6, 4, 5, 5), true) },
			6, block(100), 1, 1, 1, false},
		{"depthwise-s1", dw, func(c *Chip) {
			c.Conv(vol(5, 9, 13), ker(5, 1, 3, 3), tensor.ConvConfig{Pad: 1, Depthwise: true}, true)
		}, 5, layout{1, 3, 3}, 9, 13, 1, true},
		{"depthwise-s2", dw2, func(c *Chip) {
			c.Conv(vol(5, 9, 13), ker(5, 1, 3, 3), tensor.ConvConfig{Stride: 2, Pad: 1, Depthwise: true}, true)
		}, 5, layout{1, 3, 3}, 5, 7, 1, true},
		{"live-tap-1x1-s2", convLayer(12, 9, 9, 10, 1, 2, 0),
			func(c *Chip) { c.Conv(vol(12, 9, 9), ker(10, 12, 1, 1), tensor.ConvConfig{Stride: 2}, true) },
			10, block(12), 1, 25, 1, false},
		{"live-tap-padding-only", convLayer(20, 1, 1, 8, 3, 1, 1),
			func(c *Chip) { c.Conv(vol(20, 1, 1), ker(8, 20, 3, 3), tensor.ConvConfig{Pad: 1}, true) },
			8, block(20), 1, 1, 1, false},
		{"gemm-non-negative", gemm, func(c *Chip) { c.GEMM(nonNeg, b, false) },
			13, block(23), 1, 11, 1, true},
		{"gemm-signed", gemm, func(c *Chip) { c.GEMM(signed, b, false) },
			13, block(23), 1, 11, 2, false},
	}
	return conv, others
}

// activityConfig is the configuration the oracle rows run on: the
// chip always runs FC narrow, so the model is held to that too.
func activityConfig() Config {
	cfg := DefaultConfig()
	cfg.FCWide = false
	return cfg
}

// checkActivityOracle holds each case's device counters to one closed
// form with zero tolerance. Over the layout {z, ky, kx} a layer runs
// and the output plane it streams, kernel m on a group of capacity cap
// takes, per pass, outY*ceil(outX/Nd) tiles x ceil(ky*kx/Nm) tap
// chunks x ceil(z/cap) steps, and drives z units per (tile, chunk).
// Each layer runs healthy and with one unit quarantined; on a healthy
// chip the counters must also equal ExpectedActivity of the row's
// layer, except where the chip diverges from the model's schedule
// (TestScheduleActivityDivergences pins those factors).
func checkActivityOracle(t *testing.T, cfg Config, cases []activityCase) {
	t.Helper()
	nm, nd := cfg.Nm, cfg.Nd
	ceil := func(a, b int) int { return (a + b - 1) / b }
	for _, tc := range cases {
		for _, quarantined := range []bool{false, true} {
			c := NewChip(cfg)
			if quarantined {
				mustQuarantine(c, 1, 0)
			}
			got := observe(c, tc.run)
			var want Activity
			for m := 0; m < tc.kernels; m++ {
				capacity := c.groups[c.activeGroup(m)].Capacity()
				passes := int64(tc.passes * tc.outY * ceil(tc.outX, nd) * ceil(tc.lay.ky*tc.lay.kx, nm))
				steps, units := passes*int64(ceil(tc.lay.z, capacity)), passes*int64(tc.lay.z)
				want.Steps += steps
				want.MZMPrograms += units * int64(nm)
				want.MRRSwitches += units * int64(nm*nd)
				want.PDReads += units * int64(nd)
				want.ADCConversions += steps * int64(nd)
			}
			if got != want {
				t.Errorf("%s (quarantined %v): observed %+v, want %+v", tc.name, quarantined, got, want)
			}
			if model := cfg.ExpectedActivity(tc.layer); !quarantined && !tc.diverges && model != got {
				t.Errorf("%s: observed %+v, ExpectedActivity %+v", tc.name, got, model)
			}
		}
	}
}

// TestObservedConvActivityMatchesClosedForm checks the dense conv rows
// of the activity oracle: shapes that exercise uneven tiling in every
// loop dimension.
func TestObservedConvActivityMatchesClosedForm(t *testing.T) {
	t.Parallel()
	cfg := activityConfig()
	conv, _ := activityOracle(cfg)
	checkActivityOracle(t, cfg, conv)
}

// TestMappingActivityMatchesClosedForm checks the oracle rows of every
// other mapping: pointwise, FC, depthwise, live-tap conv and GEMM.
func TestMappingActivityMatchesClosedForm(t *testing.T) {
	t.Parallel()
	cfg := activityConfig()
	_, others := activityOracle(cfg)
	checkActivityOracle(t, cfg, others)
}

// TestPointwiseFCDepthwiseCounters checks the non-dense layer kinds
// record plausible nonzero activity and the right op-kind counters.
func TestPointwiseFCDepthwiseCounters(t *testing.T) {
	t.Parallel()
	chip, reg, tr := instrumentedChip(t)

	a := tensor.RandomVolume(8, 6, 6, 5)
	pw := tensor.RandomKernels(4, 8, 1, 1, 6)
	chip.Pointwise(a, pw, true)

	dw := tensor.RandomKernels(8, 1, 3, 3, 7)
	chip.Conv(a, dw, tensor.ConvConfig{Stride: 1, Pad: 1, Depthwise: true}, true)

	fc := tensor.RandomKernels(3, 8, 6, 6, 8)
	chip.FullyConnected(a, fc, false)

	s := reg.Snapshot()
	for _, kind := range []string{"pointwise", "depthwise", "fc"} {
		id := MetricLayerOps + `{kind="` + kind + `"}`
		if s.Counters[id] != 1 {
			t.Errorf("layer op counter %s = %d, want 1", id, s.Counters[id])
		}
	}
	act := ObservedActivity(s)
	if act.Steps == 0 || act.MZMPrograms == 0 || act.MRRSwitches == 0 ||
		act.PDReads == 0 || act.ADCConversions == 0 {
		t.Fatalf("expected nonzero activity in every device class: %+v", act)
	}
	// Device-count ratios are structural: MRR switches are exactly Nd
	// per MZM program, and ADC conversions exactly Nd per step.
	nd := int64(chip.Config().Nd)
	if act.MRRSwitches != act.MZMPrograms*nd {
		t.Errorf("MRR/MZM ratio broken: %d vs %d*%d", act.MRRSwitches, act.MZMPrograms, nd)
	}
	if act.ADCConversions != act.Steps*nd {
		t.Errorf("ADC/steps ratio broken: %d vs %d*%d", act.ADCConversions, act.Steps, nd)
	}
	// One span per layer op, one tile event per scheduled kernel.
	kinds := tr.CountByKind()
	if kinds["span-start"] != 3 || kinds["span-start"] != kinds["span-end"] {
		t.Errorf("span accounting wrong: %v", kinds)
	}
	wantTiles := int64(pw.M + dw.M + fc.M)
	if kinds["tile-scheduled"] != wantTiles {
		t.Errorf("tile events = %d, want %d", kinds["tile-scheduled"], wantTiles)
	}
}

// TestInstrumentDetach verifies Instrument(nil, nil) restores the bare
// chip and that a trace-only attachment records events without a
// registry.
func TestInstrumentDetach(t *testing.T) {
	t.Parallel()
	chip := NewChip(DefaultConfig())
	tr := obs.NewTrace()
	chip.Instrument(nil, tr)

	a := tensor.RandomVolume(3, 6, 6, 11)
	w := tensor.RandomKernels(2, 3, 3, 3, 12)
	chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
	if tr.Len() == 0 {
		t.Fatal("trace-only attachment recorded nothing")
	}

	chip.Instrument(nil, nil)
	before := tr.Len()
	chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
	if tr.Len() != before {
		t.Fatal("detached chip still recorded trace events")
	}
}

// BenchmarkConvInstrumentationOverhead measures Chip.Conv bare (no
// registry or trace ever attached - the default, whose only cost is
// one nil check per PLCG step; the acceptance bar for this PR is <5%
// vs the pre-instrumentation baseline) against the fully attached
// configuration. CI archives the bench output so the gap is tracked
// over time.
func BenchmarkConvInstrumentationOverhead(b *testing.B) {
	a := tensor.RandomVolume(6, 16, 16, 1)
	w := tensor.RandomKernels(4, 6, 3, 3, 2)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}

	b.Run("bare", func(b *testing.B) {
		chip := NewChip(DefaultConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = chip.Conv(a, w, cc, true)
		}
	})
	b.Run("attached", func(b *testing.B) {
		chip := NewChip(DefaultConfig())
		chip.Instrument(obs.NewRegistry(), obs.NewTrace())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = chip.Conv(a, w, cc, true)
		}
	})
}

// TestChipInjectFault covers the instrumented fault entry point.
func TestChipInjectFault(t *testing.T) {
	t.Parallel()
	chip, reg, tr := instrumentedChip(t)
	f := Fault{Kind: StuckMZM, Tap: 0, Column: 0, Value: 0.5}
	if err := chip.InjectFault(0, 1, f); err != nil {
		t.Fatal(err)
	}
	if err := chip.InjectFault(-1, 0, f); err == nil {
		t.Fatal("out-of-range group must error")
	}
	if err := chip.InjectFault(0, 99, f); err == nil {
		t.Fatal("out-of-range unit must error")
	}
	if got := reg.Snapshot().Counters[MetricFaultsInjected]; got != 1 {
		t.Fatalf("fault counter = %d, want 1", got)
	}
	if tr.CountByKind()["fault-injected"] != 1 {
		t.Fatalf("fault trace event missing: %v", tr.CountByKind())
	}
	// The fault must actually land on the PLCU.
	chipB := NewChip(DefaultConfig())
	if err := chipB.InjectFault(0, 1, f); err != nil {
		t.Fatal(err)
	}
	a := tensor.RandomVolume(3, 6, 6, 21)
	w := tensor.RandomKernels(1, 3, 3, 3, 22)
	clean := NewChip(DefaultConfig()).Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, false)
	faulty := chipB.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, false)
	same := true
	for i := range clean.Data {
		if clean.Data[i] != faulty.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("injected StuckMZM had no numeric effect")
	}
}
