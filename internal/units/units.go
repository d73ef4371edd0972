// Package units provides physical constants and unit conversions used
// throughout the Albireo photonic simulator.
//
// All quantities in the simulator are carried in SI base units (watts,
// amperes, meters, seconds, hertz) unless a name says otherwise. This
// package centralizes the constants from the paper's noise equations
// (Eqs. 5-6) and the dB/linear conversions that photonic loss budgets
// are quoted in.
package units

import "math"

// Physical constants (SI).
const (
	// ElementaryCharge is q_e in coulombs (paper Eq. 5).
	ElementaryCharge = 1.602176634e-19
	// Boltzmann is k_B in joules per kelvin (paper Eq. 6).
	Boltzmann = 1.380649e-23
	// LightSpeed is c in meters per second.
	LightSpeed = 2.99792458e8
)

// Common SI prefixes as multipliers, for readable parameter literals.
const (
	Tera  = 1e12
	Giga  = 1e9
	Mega  = 1e6
	Kilo  = 1e3
	Milli = 1e-3
	Micro = 1e-6
	Nano  = 1e-9
	Pico  = 1e-12
	Femto = 1e-15
	Atto  = 1e-18
)

// DBToLinear converts a decibel power ratio to a linear power ratio.
// Positive dB is gain; negative dB is loss.
func DBToLinear(db float64) float64 {
	return math.Pow(10, db/10)
}

// LinearToDB converts a linear power ratio to decibels.
// Ratios <= 0 return -Inf, matching the mathematical limit.
func LinearToDB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// LossDBToTransmission converts an insertion loss quoted in dB (a
// positive number, e.g. 1.2 dB for an MZM) into the transmitted power
// fraction in (0, 1].
func LossDBToTransmission(lossDB float64) float64 {
	return DBToLinear(-lossDB)
}

// Log2 returns log base 2 of x. It is the "bits of precision" helper:
// the paper reports log2 of the number of separable optical power
// amplitudes (Section II-C). x <= 0 returns -Inf.
func Log2(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log2(x)
}
