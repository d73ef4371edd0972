// Package memory models Albireo's digital SRAM subsystems: the 256 kB
// global buffer and the 16 kB per-PLCG kernel caches (paper Section
// IV-A). It substitutes for the PCACTI/CACTI-7 tool the paper used,
// pinning the reported 7 nm footprints and the Table III cache power
// budget, and exposing an analytic per-access energy model with the
// standard capacity scaling shape for ablation studies.
package memory

import (
	"albireo/internal/units"
	"fmt"
	"math"
)

// SRAM describes one SRAM array.
type SRAM struct {
	// CapacityBytes is the array size.
	CapacityBytes int
	// WordBytes is the access width.
	WordBytes int
	// Area is the footprint in m^2.
	Area float64
	// LeakagePower is the static power draw in watts.
	LeakagePower float64
	// baseAccessEnergy is the per-word dynamic access energy in
	// joules, calibrated at 7 nm.
	baseAccessEnergy float64
}

// Calibration constants for the 7 nm arrays. The access energies use
// the standard CACTI observation that dynamic energy grows roughly
// with the square root of capacity; the anchor is ~10 fJ/byte at 16 kB
// in 7 nm.
const (
	anchorCapacity = 16 << 10
	anchorEnergy   = 10 * units.Femto // J per byte at the anchor capacity
)

// New returns an SRAM with analytically scaled access energy.
func New(capacityBytes, wordBytes int, area, leakage float64) SRAM {
	if capacityBytes <= 0 || wordBytes <= 0 {
		panic(fmt.Sprintf("memory: invalid SRAM geometry %d/%d", capacityBytes, wordBytes)) //lint:ignore exit-hygiene SRAM geometry invariant; caller bug
	}
	perByte := anchorEnergy * math.Sqrt(float64(capacityBytes)/float64(anchorCapacity))
	return SRAM{
		CapacityBytes:    capacityBytes,
		WordBytes:        wordBytes,
		Area:             area,
		LeakagePower:     leakage,
		baseAccessEnergy: perByte * float64(wordBytes),
	}
}

// GlobalBuffer returns the paper's 256 kB global buffer
// (0.59 x 0.34 mm^2, 7 nm).
func GlobalBuffer() SRAM {
	return New(256<<10, 8, 0.59*units.Milli*0.34*units.Milli, 0.02)
}

// KernelCache returns one 16 kB PLCG kernel cache
// (0.092 x 0.085 mm^2).
func KernelCache() SRAM {
	return New(16<<10, 4, 0.092*units.Milli*0.085*units.Milli, 0.0011)
}

// ReadEnergy returns the energy to read n bytes.
func (s SRAM) ReadEnergy(n int) float64 {
	words := (n + s.WordBytes - 1) / s.WordBytes
	return float64(words) * s.baseAccessEnergy
}

// WriteEnergy returns the energy to write n bytes. Writes cost ~1.2x
// reads in small arrays (bitline swing on both rails).
func (s SRAM) WriteEnergy(n int) float64 {
	return 1.2 * s.ReadEnergy(n)
}

// Bandwidth returns the sustained bandwidth in bytes/second at the
// given clock.
func (s SRAM) Bandwidth(clockHz float64) float64 {
	return float64(s.WordBytes) * clockHz
}

// String implements fmt.Stringer.
func (s SRAM) String() string {
	return fmt.Sprintf("sram{%d kB, %d B/word, %.3f mm^2}",
		s.CapacityBytes>>10, s.WordBytes, s.Area*units.Mega)
}
