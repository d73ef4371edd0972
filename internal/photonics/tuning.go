package photonics

import (
	"albireo/internal/units"
)

// ThermalTuner models the micro-heater that trims an MRR's resonance
// onto its WDM channel and "turns rings off" by detuning (paper
// Section II-B.2: rings are switched by shifting lambda_res through
// the plasma dispersion or thermo-optic effect). Tuning power is the
// dominant share of the Table I per-MRR power.
type ThermalTuner struct {
	// EfficiencyNMPerMW is the resonance shift per milliwatt of heater
	// power. Doped silicon heaters demonstrate 0.25-1 nm/mW; the
	// default 0.5 nm/mW is mid-range.
	EfficiencyNMPerMW float64
	// MaxPower is the heater power ceiling in watts.
	MaxPower float64
}

// NewThermalTuner returns a mid-range silicon heater.
func NewThermalTuner() ThermalTuner {
	return ThermalTuner{EfficiencyNMPerMW: 0.5, MaxPower: 20 * units.Milli}
}

// PowerForShift returns the heater power in watts to shift the
// resonance by dLambda (meters; sign ignored - heaters only red-shift,
// so fabs is the budget either way after fabrication binning).
//
//lint:ignore unreachable TestLockHoldsUnderStaticOffset checks the servo's heater power against it
func (t ThermalTuner) PowerForShift(dLambda float64) float64 {
	if dLambda < 0 {
		dLambda = -dLambda
	}
	return dLambda / units.Nano / t.EfficiencyNMPerMW * units.Milli
}
