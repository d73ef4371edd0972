package perf

import (
	"fmt"

	"albireo/internal/core"
	"albireo/internal/memory"
	"albireo/internal/nn"
	"albireo/internal/units"
)

// DRAMEnergyPerByte is the off-chip access energy (LPDDR-class,
// ~20 pJ/bit incl. PHY -> 20 pJ/byte is a conservative round number
// at the byte granularity used here; the point is the two orders of
// magnitude over on-chip SRAM).
const DRAMEnergyPerByte = 20 * units.Pico

// TilingPlan describes how a layer whose activations exceed the global
// buffer is split into row bands that fit on chip, and what the
// off-chip traffic costs. The feasibility checker flags these layers;
// this planner prices the fix.
type TilingPlan struct {
	Layer nn.Layer
	// Tiles is the number of row bands (1 = fits entirely).
	Tiles int
	// TileRows is the output rows produced per band.
	TileRows int
	// HaloRows is the input-row overlap re-read at each band boundary
	// (KY - stride, at least 0).
	HaloRows int
	// DRAMReadBytes and DRAMWriteBytes are the off-chip traffic for
	// the layer (inputs + halo re-reads; outputs).
	DRAMReadBytes, DRAMWriteBytes int64
	// DRAMEnergy prices the traffic.
	DRAMEnergy float64
}

// Fits reports whether the layer needed no tiling.
func (p TilingPlan) Fits() bool { return p.Tiles <= 1 && p.DRAMReadBytes == 0 }

// PlanTiling computes the row-band tiling of one layer against the
// global buffer (double-buffered: half the capacity holds the live
// input band). Layers that fit keep everything on chip and incur no
// DRAM traffic.
func PlanTiling(cfg core.Config, l nn.Layer) TilingPlan {
	p := TilingPlan{Layer: l, Tiles: 1, TileRows: l.OutY()}
	if !l.HasMACs() {
		return p
	}
	buffer := int64(memory.GlobalBuffer().CapacityBytes)
	inputBytes := int64(l.InZ) * int64(l.InY) * int64(l.InX)
	if inputBytes <= buffer {
		return p
	}

	// Half the buffer holds the live band (the other half streams the
	// next band in).
	usable := buffer / 2
	rowBytes := int64(l.InZ) * int64(l.InX)
	stride := l.Stride
	if stride <= 0 {
		stride = 1
	}
	halo := l.KY - stride
	if halo < 0 {
		halo = 0
	}
	// Input rows per band: fit (tileInRows + halo) * rowBytes.
	tileInRows := int(usable/rowBytes) - halo
	if tileInRows < stride {
		tileInRows = stride // degenerate: one output row per band
	}
	tileOutRows := tileInRows / stride
	if tileOutRows < 1 {
		tileOutRows = 1
	}
	outY := l.OutY()
	tiles := (outY + tileOutRows - 1) / tileOutRows

	p.Tiles = tiles
	p.TileRows = tileOutRows
	p.HaloRows = halo
	// Every input byte is read once, plus the halo rows re-read at
	// each interior boundary.
	p.DRAMReadBytes = inputBytes + int64(tiles-1)*int64(halo)*rowBytes
	p.DRAMWriteBytes = int64(l.OutZ) * int64(outY) * int64(l.OutX())
	p.DRAMEnergy = float64(p.DRAMReadBytes+p.DRAMWriteBytes) * DRAMEnergyPerByte
	return p
}

// ModelTiling aggregates the off-chip plan over a network.
type ModelTiling struct {
	Model       string
	Plans       []TilingPlan
	TiledLayers int
	DRAMBytes   int64
	DRAMEnergy  float64
}

// PlanModel tiles every compute layer of a network.
func PlanModel(cfg core.Config, m nn.Model) ModelTiling {
	mt := ModelTiling{Model: m.Name}
	for _, l := range m.Layers {
		if !l.HasMACs() {
			continue
		}
		p := PlanTiling(cfg, l)
		mt.Plans = append(mt.Plans, p)
		if !p.Fits() {
			mt.TiledLayers++
		}
		mt.DRAMBytes += p.DRAMReadBytes + p.DRAMWriteBytes
		mt.DRAMEnergy += p.DRAMEnergy
	}
	return mt
}

// String implements fmt.Stringer.
func (mt ModelTiling) String() string {
	return fmt.Sprintf("%s: %d tiled layers, %.1f MB DRAM, %.3f mJ off-chip",
		mt.Model, mt.TiledLayers, float64(mt.DRAMBytes)/units.Mega, mt.DRAMEnergy*units.Kilo)
}
