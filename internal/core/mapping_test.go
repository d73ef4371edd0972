package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"albireo/internal/device"
	"albireo/internal/nn"
	"albireo/internal/tensor"
)

func TestMapLayerConv(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	// VGG conv3_1: 256 kernels, 56x56 output, 128 input channels, 3x3.
	l := nn.Layer{Kind: nn.Conv, InZ: 128, InY: 56, InX: 56, OutZ: 256, KY: 3, KX: 3, Stride: 1, Pad: 1}
	m := c.MapLayer(l)
	if m.KernelPasses != 29 { // ceil(256/9)
		t.Errorf("kernel passes = %d, want 29", m.KernelPasses)
	}
	if m.ColumnTiles != 56*12 { // 56 rows x ceil(56/5)
		t.Errorf("column tiles = %d, want %d", m.ColumnTiles, 56*12)
	}
	if m.ChannelGroups != 43 { // ceil(128/3)
		t.Errorf("channel groups = %d, want 43", m.ChannelGroups)
	}
	if m.TapChunks != 1 {
		t.Errorf("tap chunks = %d, want 1", m.TapChunks)
	}
	want := int64(29) * int64(56*12) * 43
	if m.Cycles != want {
		t.Errorf("cycles = %d, want %d", m.Cycles, want)
	}
}

func TestMapLayerBigKernel(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	// AlexNet conv1: 11x11 kernel -> 14 tap chunks.
	l := nn.Layer{Kind: nn.Conv, InZ: 3, InY: 224, InX: 224, OutZ: 96, KY: 11, KX: 11, Stride: 4, Pad: 2}
	m := c.MapLayer(l)
	if m.TapChunks != 14 {
		t.Errorf("11x11 tap chunks = %d, want 14", m.TapChunks)
	}
}

func TestMapLayerGrouped(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	l := nn.Layer{Kind: nn.Conv, InZ: 96, InY: 27, InX: 27, OutZ: 256, KY: 5, KX: 5, Stride: 1, Pad: 2, Groups: 2}
	m := c.MapLayer(l)
	// Channels per group: 48 -> 16 channel groups, not 32.
	if m.ChannelGroups != 16 {
		t.Errorf("grouped channel groups = %d, want 16", m.ChannelGroups)
	}
	if m.TapChunks != 3 { // ceil(25/9)
		t.Errorf("5x5 tap chunks = %d, want 3", m.TapChunks)
	}
}

func TestMapLayerDepthwise(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	l := nn.Layer{Kind: nn.Depthwise, InZ: 512, InY: 14, InX: 14, OutZ: 512, KY: 3, KX: 3, Stride: 1, Pad: 1}
	m := c.MapLayer(l)
	// 512 channels over Ng*Nu = 27 parallel units.
	if m.KernelPasses != 19 { // ceil(512/27)
		t.Errorf("depthwise passes = %d, want 19", m.KernelPasses)
	}
	if m.ChannelGroups != 1 {
		t.Error("depthwise has no cross-channel aggregation")
	}
}

func TestMapLayerPointwise(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	l := nn.Layer{Kind: nn.Pointwise, InZ: 512, InY: 14, InX: 14, OutZ: 512, KY: 1, KX: 1}
	m := c.MapLayer(l)
	if m.KernelPasses != 57 { // ceil(512/9)
		t.Errorf("pointwise kernel passes = %d, want 57", m.KernelPasses)
	}
	if m.ColumnTiles != 40 { // ceil(196/5)
		t.Errorf("pointwise tiles = %d, want 40", m.ColumnTiles)
	}
	if m.ChannelGroups != 19 { // ceil(512/27)
		t.Errorf("pointwise channel groups = %d, want 19", m.ChannelGroups)
	}
}

// TestMapLayerLiveTaps pins the model to the route the simulator
// runs: a conv with L < Nm live taps is priced as pointwise over its
// Z*L (channel, tap) planes, and its cycles match the simulator's
// steps per Ng kernels.
func TestMapLayerLiveTaps(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	cases := []struct {
		name string
		conv nn.Layer
		// pw is the pointwise layer the conv must price as.
		pw nn.Layer
	}{
		{"1x1-stride2",
			nn.Layer{Kind: nn.Conv, InZ: 128, InY: 28, InX: 28, OutZ: 256, KY: 1, KX: 1, Stride: 2},
			nn.Layer{Kind: nn.Pointwise, InZ: 128, InY: 14, InX: 14, OutZ: 256, KY: 1, KX: 1}},
		{"padding-only",
			nn.Layer{Kind: nn.Conv, InZ: 128, InY: 1, InX: 1, OutZ: 128, KY: 3, KX: 3, Stride: 1, Pad: 1},
			nn.Layer{Kind: nn.Pointwise, InZ: 128, InY: 1, InX: 1, OutZ: 128, KY: 1, KX: 1}},
		{"four-live-taps",
			nn.Layer{Kind: nn.Conv, InZ: 64, InY: 2, InX: 2, OutZ: 128, KY: 3, KX: 3, Stride: 2, Pad: 1},
			nn.Layer{Kind: nn.Pointwise, InZ: 64 * 4, InY: 1, InX: 1, OutZ: 128, KY: 1, KX: 1}},
	}
	for _, tc := range cases {
		got, want := c.MapLayer(tc.conv), c.MapLayer(tc.pw)
		if got.Cycles != want.Cycles || got.ColumnTiles != want.ColumnTiles ||
			got.ChannelGroups != want.ChannelGroups || got.TapChunks != 1 {
			t.Errorf("%s: mapped %+v, want the pointwise %+v", tc.name, got, want)
		}
		l := tc.conv
		l.OutZ = c.Ng
		if perPass := got.Cycles / got.KernelPasses; c.ExpectedActivity(l).Steps != int64(c.Ng)*perPass {
			t.Errorf("%s: %d steps for Ng kernels, model prices %d cycles per kernel pass", tc.name, c.ExpectedActivity(l).Steps, perPass)
		}
	}
	// A conv whose live taps fill the waveguides keeps the
	// receptive-field price.
	l := nn.Layer{Kind: nn.Conv, InZ: 64, InY: 2, InX: 2, OutZ: 64, KY: 3, KX: 3, Stride: 1, Pad: 1}
	if m := c.MapLayer(l); m.ChannelGroups != 22 || m.ColumnTiles != 2 {
		t.Errorf("3x3 on 2x2 (L = 9): mapped %+v, want 22 channel groups over 2 tiles", m)
	}
}

func TestMapLayerFC(t *testing.T) {
	t.Parallel()
	wide := DefaultConfig()
	narrow := DefaultConfig()
	narrow.FCWide = false
	l := nn.Layer{Kind: nn.FC, InZ: 256, InY: 6, InX: 6, OutZ: 4096, KY: 1, KX: 1}
	mw := wide.MapLayer(l)
	mn := narrow.MapLayer(l)
	// 9216 elements: wide consumes 135/cycle, narrow 27/cycle.
	if mw.ChannelGroups != 69 { // ceil(9216/135)
		t.Errorf("wide FC groups = %d, want 69", mw.ChannelGroups)
	}
	if mn.ChannelGroups != 342 { // ceil(9216/27)
		t.Errorf("narrow FC groups = %d, want 342", mn.ChannelGroups)
	}
	if mw.Cycles >= mn.Cycles {
		t.Error("wide FC mapping must be faster")
	}
}

func TestMapLayerPooling(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	l := nn.Layer{Kind: nn.MaxPoolKind, InZ: 64, InY: 112, InX: 112, OutZ: 64, KY: 3, KX: 3, Stride: 2}
	if got := c.MapLayer(l).Cycles; got != 0 {
		t.Errorf("pooling cycles = %d, want 0", got)
	}
}

func TestVGG16LatencyMatchesPaper(t *testing.T) {
	t.Parallel()
	// Paper Table IV: VGG16 on Albireo-C takes 2.55 ms. Our mapping
	// should land within ~15% (the paper's exact tiling is not fully
	// specified; see DESIGN.md).
	mm := DefaultConfig().MapModel(nn.VGG16())
	lat := mm.Latency() * 1e3 // ms
	if lat < 2.2 || lat > 3.0 {
		t.Errorf("VGG16 Albireo-C latency = %.3f ms, want ~2.55 ms", lat)
	}
}

func TestAlexNetLatencyMatchesPaper(t *testing.T) {
	t.Parallel()
	// Paper Table IV: AlexNet on Albireo-C takes 0.13 ms (with the
	// wide FC mapping and grouped convolutions; see DESIGN.md).
	mm := DefaultConfig().MapModel(nn.AlexNet())
	lat := mm.Latency() * 1e3
	if lat < 0.10 || lat > 0.18 {
		t.Errorf("AlexNet Albireo-C latency = %.3f ms, want ~0.13 ms", lat)
	}
}

func TestAggressiveLatencyScalesWithRate(t *testing.T) {
	t.Parallel()
	// Albireo-A runs at 8 GHz: latency should be exactly 5/8 of the
	// conservative latency (same mapping).
	c := DefaultConfig()
	a := DefaultConfig()
	a.Estimate = device.Aggressive
	lc := c.MapModel(nn.VGG16()).Latency()
	la := a.MapModel(nn.VGG16()).Latency()
	if math.Abs(la/lc-5.0/8.0) > 1e-9 {
		t.Errorf("aggressive/conservative latency ratio = %g, want 0.625", la/lc)
	}
}

func TestAlbireo27Scaling(t *testing.T) {
	t.Parallel()
	// Tripling the PLCGs should cut conv-dominated latency roughly 3x
	// (within ceiling effects).
	l9 := DefaultConfig().MapModel(nn.VGG16()).Latency()
	l27 := Albireo27().MapModel(nn.VGG16()).Latency()
	ratio := l9 / l27
	if ratio < 2.2 || ratio > 3.2 {
		t.Errorf("Albireo-27 speedup on VGG16 = %.2f, want ~3", ratio)
	}
}

func TestModelMappingAccounting(t *testing.T) {
	t.Parallel()
	mm := DefaultConfig().MapModel(nn.MobileNet())
	var sum int64
	for _, lm := range mm.Layers {
		sum += lm.Cycles
		if lm.Cycles <= 0 {
			t.Errorf("%s: compute layer with no cycles", lm.Layer.Name)
		}
	}
	if sum != mm.TotalCycles {
		t.Error("per-layer cycles must sum to the total")
	}
	u := mm.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %g out of (0,1]", u)
	}
}

// TestMapModelVGG16ComputeLayers checks MapModel keeps exactly the
// layers with MACs: VGG16's 13 convs and 3 FCs, carrying every MAC.
func TestMapModelVGG16ComputeLayers(t *testing.T) {
	t.Parallel()
	m := nn.VGG16()
	mm := DefaultConfig().MapModel(m)
	if len(mm.Layers) != 16 {
		t.Errorf("VGG16 should have 16 compute layers, got %d", len(mm.Layers))
	}
	var sum int64
	for _, lm := range mm.Layers {
		sum += lm.Layer.MACs()
	}
	if sum != m.TotalMACs() {
		t.Error("compute layers must carry all MACs")
	}
}

func TestAllBenchmarksMap(t *testing.T) {
	t.Parallel()
	for _, m := range nn.Benchmarks() {
		mm := DefaultConfig().MapModel(m)
		if mm.TotalCycles <= 0 {
			t.Errorf("%s: no cycles mapped", m.Name)
		}
		// Latency sanity: between 10 us and 10 ms for these networks.
		lat := mm.Latency()
		if lat < 10e-6 || lat > 10e-3 {
			t.Errorf("%s latency %.3g s out of plausible range", m.Name, lat)
		}
	}
}

// mapperRepresentatives mirrors nn's representative-layer table on the
// core side: one well-formed layer per Kind, so the exhaustiveness
// loop below fails CI when a Kind is added without a MapLayer case
// (the default arm schedules zero cycles, which trips the HasMACs
// check) or without a row here.
func mapperRepresentatives() map[nn.Kind]nn.Layer {
	return map[nn.Kind]nn.Layer{
		nn.Conv:           {Kind: nn.Conv, InZ: 8, InY: 12, InX: 12, OutZ: 16, KY: 3, KX: 3, Stride: 1, Pad: 1},
		nn.Depthwise:      {Kind: nn.Depthwise, InZ: 8, InY: 12, InX: 12, OutZ: 8, KY: 3, KX: 3, Stride: 1, Pad: 1},
		nn.Pointwise:      {Kind: nn.Pointwise, InZ: 8, InY: 12, InX: 12, OutZ: 16, KY: 1, KX: 1},
		nn.FC:             {Kind: nn.FC, InZ: 64, InY: 1, InX: 1, OutZ: 10, KY: 1, KX: 1},
		nn.MaxPoolKind:    {Kind: nn.MaxPoolKind, InZ: 8, InY: 12, InX: 12, OutZ: 8, KY: 2, KX: 2, Stride: 2},
		nn.AvgPoolKind:    {Kind: nn.AvgPoolKind, InZ: 8, InY: 12, InX: 12, OutZ: 8, KY: 2, KX: 2, Stride: 2},
		nn.GEMM:           {Kind: nn.GEMM, InZ: 32, InY: 1, InX: 16, OutZ: 24, KY: 1, KX: 1},
		nn.LSTMCell:       {Kind: nn.LSTMCell, InZ: 32, InY: 1, InX: 8, OutZ: 48, KY: 1, KX: 1},
		nn.AttentionBlock: {Kind: nn.AttentionBlock, InZ: 32, InY: 1, InX: 16, OutZ: 32, KY: 1, KX: 1},
	}
}

// TestMapLayerCoversEveryKind is the mapper exhaustiveness gate.
func TestMapLayerCoversEveryKind(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	reps := mapperRepresentatives()
	for k := nn.Kind(0); k < nn.NumKinds; k++ {
		l, ok := reps[k]
		if !ok {
			t.Fatalf("kind %v has no representative layer: extend mapperRepresentatives and MapLayer", k)
		}
		m := c.MapLayer(l)
		if l.HasMACs() && m.Cycles <= 0 {
			t.Fatalf("kind %v carries MACs but MapLayer schedules %d cycles: missing switch case", k, m.Cycles)
		}
		if !l.HasMACs() && m.Cycles != 0 {
			t.Fatalf("kind %v is a digital-path layer but MapLayer schedules %d cycles", k, m.Cycles)
		}
	}
}

// TestMapLayerGEMM pins the GEMM-family schedules on the default
// config (Ng=9, Nu=3, Nm=9, Nd=5).
func TestMapLayerGEMM(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	g := c.MapLayer(nn.Layer{Kind: nn.GEMM, InZ: 64, InY: 1, InX: 32, OutZ: 40, KY: 1, KX: 1})
	if g.KernelPasses != 5 { // ceil(40/9)
		t.Errorf("gemm kernel passes = %d, want 5", g.KernelPasses)
	}
	if g.ColumnTiles != 7 { // ceil(32/5)
		t.Errorf("gemm column tiles = %d, want 7", g.ColumnTiles)
	}
	if g.ChannelGroups != 3 { // ceil(64/27)
		t.Errorf("gemm channel groups = %d, want 3", g.ChannelGroups)
	}
	if g.TapChunks != 2 { // signed decomposition: A+ and A- passes
		t.Errorf("gemm tap chunks = %d, want 2", g.TapChunks)
	}
	if want := int64(5 * 7 * 3 * 2); g.Cycles != want {
		t.Errorf("gemm cycles = %d, want %d", g.Cycles, want)
	}

	l := c.MapLayer(nn.Layer{Kind: nn.LSTMCell, InZ: 27, InY: 1, InX: 4, OutZ: 27, KY: 1, KX: 1})
	// ceil(4*27/9)=12 passes, 4 timesteps, (1+1) channel groups, x2 sign.
	if want := int64(12 * 4 * 2 * 2); l.Cycles != want {
		t.Errorf("lstm cycles = %d, want %d", l.Cycles, want)
	}

	a := c.MapLayer(nn.Layer{Kind: nn.AttentionBlock, InZ: 27, InY: 1, InX: 18, OutZ: 27, KY: 1, KX: 1})
	// QK^T: ceil(18/9)*ceil(18/5)*ceil(27/27) = 2*4*1 = 8
	// AV:   ceil(27/9)*ceil(18/5)*ceil(18/27) = 3*4*1 = 12
	// QK^T runs both sign passes; AV's softmax input runs one.
	if want := int64(2*8 + 12); a.Cycles != want {
		t.Errorf("attention cycles = %d, want %d", a.Cycles, want)
	}
}

// goldenMappingDigest is the SHA-256 of every LayerMapping field of
// every compute layer of nn.Benchmarks(), nn.WorkloadModels() and
// mapperRepresentatives(), over Ng in {1, 4, 9, 16, 27, 36} and both
// FC mappings. sim reads the factor fields, so none of them may move.
// It was re-recorded when attention's AV product went to one pass:
// only AttentionBlock cycle counts moved.
const goldenMappingDigest = "4d549be6cea65da680f0ef6941f2f19ef2ac88cd14c2067d34c41302c6d381a4"

// TestGoldenLayerMappings pins MapLayer's every field beyond the few
// configurations RESULTS.json covers.
func TestGoldenLayerMappings(t *testing.T) {
	t.Parallel()
	var layers []nn.Layer
	for _, m := range append(nn.Benchmarks(), nn.WorkloadModels()...) {
		layers = append(layers, m.Layers...)
	}
	reps := mapperRepresentatives()
	for k := nn.Kind(0); k < nn.NumKinds; k++ {
		layers = append(layers, reps[k])
	}
	h := sha256.New()
	for _, ng := range []int{1, 4, 9, 16, 27, 36} {
		for _, wide := range []bool{true, false} {
			c := DefaultConfig()
			c.Ng, c.FCWide = ng, wide
			for _, l := range layers {
				if !l.HasMACs() {
					continue
				}
				m := c.MapLayer(l)
				fmt.Fprintf(h, "%d %t %#v %d %d %d %d %d\n", ng, wide, m.Layer,
					m.KernelPasses, m.ColumnTiles, m.ChannelGroups, m.TapChunks, m.Cycles)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenMappingDigest {
		t.Errorf("LayerMapping digest = %s, want %s", got, goldenMappingDigest)
	}
}

// runRepresentative runs l on c with random operands: non-negative
// activations, signed GEMM-family inputs. An LSTM steps from a random
// hidden state, so no timestep's recurrent product is all zero.
func runRepresentative(c *Chip, l nn.Layer) {
	a := tensor.RandomVolume(l.InZ, l.InY, l.InX, 871)
	cc := tensor.ConvConfig{Stride: l.Stride, Pad: l.Pad}
	switch l.Kind {
	case nn.Conv:
		c.Conv(a, tensor.RandomKernels(l.OutZ, l.InZ, l.KY, l.KX, 872), cc, true)
	case nn.Depthwise:
		cc.Depthwise = true
		c.Conv(a, tensor.RandomKernels(l.InZ, 1, l.KY, l.KX, 872), cc, true)
	case nn.Pointwise:
		c.Pointwise(a, tensor.RandomKernels(l.OutZ, l.InZ, 1, 1, 872), true)
	case nn.FC:
		c.FullyConnected(a, tensor.RandomKernels(l.OutZ, l.InZ, l.InY, l.InX, 872), true)
	case nn.GEMM:
		c.GEMM(tensor.RandomMatrix(l.InX, l.InZ, 873), tensor.RandomMatrix(l.InZ, l.OutZ, 874), false)
	case nn.LSTMCell:
		cell := nn.NewLSTM("lstm", l.InZ, l.OutZ, 875)
		h, state := tensor.RandomMatrix(1, l.OutZ, 876), (*tensor.Matrix)(nil)
		for i := 0; i < l.InX; i++ {
			h, state = cell.Step(c, tensor.RandomMatrix(1, l.InZ, 877+int64(i)), h, state)
		}
	case nn.AttentionBlock:
		q, k, v := tensor.RandomMatrix(l.InX, l.InZ, 873), tensor.RandomMatrix(l.InX, l.InZ, 874), tensor.RandomMatrix(l.InX, l.InZ, 875)
		nn.Attention(c, q, k, v)
	}
}

// TestScheduleActivityDivergences runs mapperRepresentatives() on a
// healthy chip and holds each to ExpectedActivity: equal, except by
// the three factors Config.schedule names. The chip runs depthwise one
// channel per step where the model packs Nu (exactly Nu x the steps
// when Ng*Nu divides the channels); it runs FC narrow whatever FCWide
// says; and it skips the negative pass of a non-negative GEMM input.
// Attention matches exactly: the schedule prices its AV product, over
// the never-negative softmax scores, at the one pass the chip runs.
func TestScheduleActivityDivergences(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	reps := mapperRepresentatives()
	half := func(a Activity) Activity {
		return Activity{a.Steps / 2, a.MZMPrograms / 2, a.MRRSwitches / 2, a.PDReads / 2, a.ADCConversions / 2}
	}
	for k := nn.Kind(0); k < nn.NumKinds; k++ {
		l := reps[k]
		if !l.HasMACs() {
			continue
		}
		want := cfg.ExpectedActivity(l)
		switch k {
		case nn.Depthwise:
			l.InZ, l.OutZ = cfg.Ng*cfg.Nu, cfg.Ng*cfg.Nu
			want = cfg.ExpectedActivity(l)
			nu := int64(cfg.Nu)
			want.Steps, want.ADCConversions = nu*want.Steps, nu*want.ADCConversions
		case nn.FC:
			narrow := cfg
			narrow.FCWide = false
			if want == narrow.ExpectedActivity(l) {
				t.Fatalf("%v: the wide and narrow FC schedules count the same activity", k)
			}
			want = narrow.ExpectedActivity(l)
		}
		if got := observe(NewChip(cfg), func(c *Chip) { runRepresentative(c, l) }); got != want {
			t.Errorf("%v: observed %+v, want %+v", k, got, want)
		}
	}
	// A non-negative GEMM input runs one of the model's two passes.
	l := reps[nn.GEMM]
	got := observe(NewChip(cfg), func(c *Chip) {
		c.GEMM(tensor.RandomNonNegMatrix(l.InX, l.InZ, 873), tensor.RandomMatrix(l.InZ, l.OutZ, 874), false)
	})
	if want := half(cfg.ExpectedActivity(l)); got != want {
		t.Errorf("non-negative GEMM: observed %+v, want half the model's %+v", got, want)
	}
}
