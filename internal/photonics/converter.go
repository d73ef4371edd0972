package photonics

import (
	"albireo/internal/units"
	"fmt"
	"math"
)

// ADC models the analog-to-digital converter in each PLCG aggregation
// unit. It digitizes a value within [-FullScale, +FullScale]
// (differential input from the balanced PD/TIA chain) to Bits of
// resolution.
type ADC struct {
	// Bits is the converter resolution (8 in the paper).
	Bits int
	// SampleRate is in samples per second.
	SampleRate float64
}

// Levels returns the number of codes, 2^Bits.
func (a ADC) Levels() int { return 1 << uint(a.Bits) }

// Quantize digitizes x against the symmetric full scale fs and returns
// the reconstructed value. Inputs beyond +-fs clip to the rails.
func (a ADC) Quantize(x, fs float64) float64 {
	if fs <= 0 {
		return 0
	}
	half := float64(a.Levels()/2 - 1)
	q := math.Round(clamp(x/fs, -1, 1) * half)
	return q / half * fs
}

// String implements fmt.Stringer.
func (a ADC) String() string {
	return fmt.Sprintf("adc{%d bit @ %.0f GS/s}", a.Bits, a.SampleRate/units.Giga)
}
