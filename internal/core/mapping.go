package core

import "albireo/internal/nn"

// LayerMapping is the cycle-level schedule of one layer on the chip,
// following the convolution partitioning of Algorithm 2: Ng kernels in
// parallel (one per PLCG), Nd output columns per cycle, Nu channels
// aggregated per cycle, and extra passes for kernels larger than Nm.
type LayerMapping struct {
	Layer nn.Layer
	// KernelPasses is ceil(Wm/Ng): how many rounds of kernel
	// assignment the layer needs.
	KernelPasses int64
	// ColumnTiles is OutY * ceil(OutX/Nd): receptive-field tiles per
	// kernel (ceil(OutY*OutX/Nd) on the pointwise layout).
	ColumnTiles int64
	// ChannelGroups is ceil(Wz/Nu): depth-first aggregation cycles
	// (ceil(Wz*L/(Nu*Nm)) for a conv with L < Nm live taps).
	ChannelGroups int64
	// TapChunks is ceil(KY*KX/Nm): passes for oversized kernels.
	TapChunks int64
	// Cycles is the product: total modulation cycles for the layer.
	Cycles int64
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// MapLayer schedules one layer and returns its cycle count. Pooling
// layers map to zero cycles (they ride the digital aggregation path).
func (c Config) MapLayer(l nn.Layer) LayerMapping {
	m := LayerMapping{Layer: l, KernelPasses: 1, ColumnTiles: 1, ChannelGroups: 1, TapChunks: 1}
	ng, nd, nu, nm := int64(c.Ng), int64(c.Nd), int64(c.Nu), int64(c.Nm)
	switch l.Kind {
	case nn.Conv:
		groups := int64(1)
		if l.Groups > 1 {
			groups = int64(l.Groups)
		}
		m.KernelPasses = ceilDiv(int64(l.OutZ), ng)
		if taps, block := c.denseLayout(l.InY, l.InX, l.KY, l.KX, l.Stride, l.Pad); block {
			// Live taps leave waveguides empty: the pointwise layout
			// over the Z*L live (channel, tap) planes (livetaps.go).
			m.ColumnTiles = ceilDiv(int64(l.OutY())*int64(l.OutX()), nd)
			m.ChannelGroups = ceilDiv(int64(l.InZ)/groups*int64(taps.count()), nu*nm)
			break
		}
		m.ColumnTiles = int64(l.OutY()) * ceilDiv(int64(l.OutX()), nd)
		m.ChannelGroups = ceilDiv(int64(l.InZ)/groups, nu)
		m.TapChunks = ceilDiv(int64(l.KY)*int64(l.KX), nm)
	case nn.Depthwise:
		// Every PLCU filters an independent channel: Ng*Nu channels in
		// flight, no cross-channel aggregation (Section III-C).
		m.KernelPasses = ceilDiv(int64(l.InZ), ng*nu)
		m.ColumnTiles = int64(l.OutY()) * ceilDiv(int64(l.OutX()), nd)
		m.TapChunks = ceilDiv(int64(l.KY)*int64(l.KX), nm)
	case nn.Pointwise:
		// Each MZM applies one channel of the 1x1 kernel; PD columns
		// hold Nd receptive fields; Nu*Nm channels aggregate per cycle
		// (Section III-C).
		m.KernelPasses = ceilDiv(int64(l.OutZ), ng)
		m.ColumnTiles = ceilDiv(int64(l.OutY())*int64(l.OutX()), nd)
		m.ChannelGroups = ceilDiv(int64(l.InZ), nu*nm)
	case nn.FC:
		n := int64(l.InZ) * int64(l.InY) * int64(l.InX)
		m.KernelPasses = ceilDiv(int64(l.OutZ), ng)
		per := nu * nm
		if c.FCWide {
			per *= nd
		}
		m.ChannelGroups = ceilDiv(n, per)
	case nn.GEMM:
		// The block mapping with matrix rows as pixels: N output
		// columns round-robin the PLCGs, Nd rows per cycle, Nu*Nm
		// reduction elements aggregate per cycle. TapChunks = 2 is the
		// signed-activation decomposition: the fabric runs the block
		// once for A+ and once for A- (see core/gemm.go).
		m.KernelPasses = ceilDiv(int64(l.OutZ), ng)
		m.ColumnTiles = ceilDiv(int64(l.InX), nd)
		m.ChannelGroups = ceilDiv(int64(l.InZ), nu*nm)
		m.TapChunks = 2
	case nn.LSTMCell:
		// Per timestep: the four gate columns against [x;h], one
		// sequence element per pass (batch-1 recurrence serializes on
		// the hidden state), doubled for the sign split.
		m.KernelPasses = ceilDiv(4*int64(l.OutZ), ng)
		m.ColumnTiles = int64(l.InX)
		m.ChannelGroups = ceilDiv(int64(l.InZ), nu*nm) + ceilDiv(int64(l.OutZ), nu*nm)
		m.TapChunks = 2
	case nn.AttentionBlock:
		// Two chained products - scores = QK^T (T x d x T) and
		// out = scores V (T x T x d) - each sign-split. The factor
		// fields describe the QK^T stage; Cycles sums both stages.
		t, d := int64(l.InX), int64(l.InZ)
		m.KernelPasses = ceilDiv(t, ng)
		m.ColumnTiles = ceilDiv(t, nd)
		m.ChannelGroups = ceilDiv(d, nu*nm)
		m.TapChunks = 2
		qk := ceilDiv(t, ng) * ceilDiv(t, nd) * ceilDiv(d, nu*nm)
		av := ceilDiv(d, ng) * ceilDiv(t, nd) * ceilDiv(t, nu*nm)
		m.Cycles = 2 * (qk + av)
		return m
	default:
		return m // pooling: zero compute cycles
	}
	m.Cycles = m.KernelPasses * m.ColumnTiles * m.ChannelGroups * m.TapChunks
	return m
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
