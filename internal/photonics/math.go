package photonics

import "math"

// Small local aliases keep the physics formulas readable without
// repeating the math package qualifier in every expression.
const pi = math.Pi

func sqrt(x float64) float64 { return math.Sqrt(x) }
func cos(x float64) float64  { return math.Cos(x) }
func acos(x float64) float64 { return math.Acos(x) }

// clamp limits x to the closed interval [lo, hi].
func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
