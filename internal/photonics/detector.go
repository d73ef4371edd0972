package photonics

import (
	"albireo/internal/units"
)

// Photodiode models the PIN photodetector that converts accumulated
// optical power into current (paper Section II-B: I is directly
// proportional to the incident optical power across all wavelengths).
type Photodiode struct {
	// Responsivity is in amperes per watt (Table II: 1.1 A/W).
	Responsivity float64
	// DarkCurrent is the reverse-bias leakage (Table II: 25 pA @ 1 V).
	DarkCurrent float64
}

// NewPhotodiode returns the Table II PIN photodiode.
func NewPhotodiode() Photodiode {
	return Photodiode{Responsivity: 1.1, DarkCurrent: 25 * units.Pico}
}
