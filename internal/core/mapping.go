package core

import "albireo/internal/nn"

// LayerMapping is the cycle-level schedule of one layer on the chip,
// following the convolution partitioning of Algorithm 2: Ng kernels in
// parallel (one per PLCG), Nd output columns per cycle, Nu channels
// aggregated per cycle, and extra passes for kernels larger than Nm.
// The factor fields are the first stage's (see schedule).
type LayerMapping struct {
	Layer nn.Layer
	// KernelPasses is ceil(Wm/Ng): how many rounds of kernel
	// assignment the layer needs.
	KernelPasses int64
	// ColumnTiles is OutY * ceil(OutX/Nd): receptive-field tiles per
	// kernel (ceil(OutY*OutX/Nd) on the block layout).
	ColumnTiles int64
	// ChannelGroups is ceil(Wz/Nu): depth-first aggregation cycles
	// (ceil(n/(Nu*Nm)) for n-element kernels on the block layout).
	ChannelGroups int64
	// TapChunks is ceil(KY*KX/Nm): passes for oversized kernels (2 for
	// the GEMM family's sign split).
	TapChunks int64
	// Cycles is the product summed over the stages: total modulation
	// cycles for the layer.
	Cycles int64
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// stage is one loop nest of a layer's schedule (Algorithm 2): kernels
// kernels, each streaming an outY x outX output plane in Nd-wide
// tiles over layout lay - lay.z channels aggregated Nu at a time,
// lay.chunks tap chunks each - passes times, pack kernels to a PLCG
// step. A stage that extends the previous one's reduction (an LSTM's
// recurrent half) adds its channel groups to the layer's.
type stage struct {
	lay                               layout
	kernels, outY, outX, passes, pack int
	extends                           bool
}

// schedule lays a layer onto the chip's one loop nest, with the
// layouts the layer loop runs: a dense conv {Z, KY, KX}, or with
// L < Nm live taps the block view of its Z*L live planes over one row
// of pixels (livetaps.go); depthwise one channel per kernel, Nu packed
// to a step (Section III-C); pointwise, FC and the GEMM family the
// block view of their n-element kernels. The wide FC feeds each of the
// Nd PD columns a 1/Nd slice of the input. A GEMM runs the sign
// split's two passes; an LSTM is two GEMMs over x and h, one timestep
// per row; attention the QK^T product and the AV product, whose input
// is the softmax scores: never negative, so one pass. Pooling has no
// stage.
//
// The chip departs from the schedule in three places, by design: it
// runs depthwise one channel per PLCG step, always runs FC narrow, and
// skips the negative pass of a GEMM or LSTM input that happens to be
// non-negative.
func (c Config) schedule(l nn.Layer) []stage {
	k, oy, ox, n := l.OutZ, l.OutY(), l.OutX(), l.InZ*l.InY*l.InX
	// Each stage reads {lay, kernels, outY, outX, passes, pack, extends}.
	switch l.Kind {
	case nn.Conv:
		z := l.InZ / max(l.Groups, 1)
		if taps, block := c.denseLayout(l.InY, l.InX, l.KY, l.KX, l.Stride, l.Pad); block {
			return []stage{{c.blockView(z * taps.count()), k, 1, oy * ox, 1, 1, false}}
		}
		return []stage{{layout{z, l.KY, l.KX}, k, oy, ox, 1, 1, false}}
	case nn.Depthwise:
		return []stage{{layout{1, l.KY, l.KX}, l.InZ, oy, ox, 1, c.Nu, false}}
	case nn.Pointwise:
		return []stage{{c.blockView(l.InZ), k, 1, oy * ox, 1, 1, false}}
	case nn.FC:
		if c.FCWide {
			return []stage{{c.blockView((n + c.Nd - 1) / c.Nd), k, 1, c.Nd, 1, 1, false}}
		}
		return []stage{{c.blockView(n), k, 1, 1, 1, 1, false}}
	case nn.GEMM:
		return []stage{{c.blockView(l.InZ), k, 1, l.InX, 2, 1, false}}
	case nn.LSTMCell:
		return []stage{{c.blockView(l.InZ), 4 * k, l.InX, 1, 2, 1, false},
			{c.blockView(k), 4 * k, l.InX, 1, 2, 1, true}}
	case nn.AttentionBlock:
		t, d := l.InX, l.InZ
		return []stage{{c.blockView(d), t, 1, t, 2, 1, false}, {c.blockView(t), d, 1, t, 1, 1, false}}
	}
	return nil
}

// loop returns stage s's loop nest on c: kernel rounds
// ceil(kernels/(Ng*pack)), output tiles per kernel, channel groups of
// Nu, and tap-chunk passes per (tile, group).
func (s stage) loop(c Config) (rounds, tiles, groups, runs int64) {
	return ceilDiv(int64(s.kernels), int64(c.Ng*s.pack)),
		int64(s.outY) * ceilDiv(int64(s.outX), int64(c.Nd)),
		ceilDiv(int64(s.lay.z), int64(c.Nu)),
		int64(s.lay.chunks(c.Nm) * s.passes)
}

// MapLayer schedules one layer and returns its cycle count. Pooling
// layers map to zero cycles (they ride the digital aggregation path).
func (c Config) MapLayer(l nn.Layer) LayerMapping {
	m := LayerMapping{Layer: l, KernelPasses: 1, ColumnTiles: 1, ChannelGroups: 1, TapChunks: 1}
	for i, s := range c.schedule(l) {
		rounds, tiles, groups, runs := s.loop(c)
		m.Cycles += rounds * tiles * groups * runs
		if i == 0 {
			m.KernelPasses, m.ColumnTiles, m.ChannelGroups, m.TapChunks = rounds, tiles, groups, runs
		} else if s.extends {
			m.ChannelGroups += groups
		}
	}
	return m
}

// ExpectedActivity computes the Activity of a layer from the stages
// MapLayer prices: for every kernel and (tile, tap chunk, pass), one
// step per Nu channels with min(Nu, remaining) active PLCUs, pack
// kernels sharing a step. On a healthy chip it is exactly what the
// layer loop records, apart from the three divergences schedule names.
func (c Config) ExpectedActivity(l nn.Layer) Activity {
	var a Activity
	nm, nd := int64(c.Nm), int64(c.Nd)
	for _, s := range c.schedule(l) {
		_, tiles, groups, runs := s.loop(c)
		// min(Nu, z-z0) summed over the groups is z active PLCU-steps.
		steps, units := ceilDiv(int64(s.kernels), int64(s.pack))*tiles*runs*groups, int64(s.kernels)*tiles*runs*int64(s.lay.z)
		a.Steps += steps
		a.MZMPrograms += units * nm
		a.MRRSwitches += units * nm * nd
		a.PDReads += units * nd
		a.ADCConversions += steps * nd
	}
	return a
}

// ActivePLCGs is the average number of PLCGs a layer's first stage
// keeps busy over its kernel rounds, kernels/(rounds*pack), or 0 for
// a layer without stages.
func (c Config) ActivePLCGs(l nn.Layer) float64 {
	if s := c.schedule(l); len(s) > 0 && s[0].kernels > 0 {
		rounds, _, _, _ := s[0].loop(c)
		return float64(s[0].kernels) / float64(rounds) / float64(s[0].pack)
	}
	return 0
}

// ModelMapping is the full schedule of a network.
type ModelMapping struct {
	Model  nn.Model
	Config Config
	Layers []LayerMapping
	// TotalCycles across all compute layers.
	TotalCycles int64
}

// MapModel schedules every compute layer of the model.
func (c Config) MapModel(m nn.Model) ModelMapping {
	mm := ModelMapping{Model: m, Config: c}
	for _, l := range m.Layers {
		lm := c.MapLayer(l)
		if l.HasMACs() {
			mm.Layers = append(mm.Layers, lm)
			mm.TotalCycles += lm.Cycles
		}
	}
	return mm
}

// Latency returns the inference latency in seconds at the design's
// modulation rate.
func (mm ModelMapping) Latency() float64 {
	return float64(mm.TotalCycles) / mm.Config.ModulationRate()
}

// Utilization returns the fraction of peak fabric MACs actually used:
// model MACs divided by (peak MACs/cycle * cycles). Peak is
// Ng*Nu*Nm*Nd products per cycle.
func (mm ModelMapping) Utilization() float64 {
	c := mm.Config
	peak := float64(c.Ng*c.Nu*c.Nm*c.Nd) * float64(mm.TotalCycles)
	if peak <= 0 {
		return 0
	}
	return float64(mm.Model.TotalMACs()) / peak
}
