package control

import (
	"math"
	"testing"

	"albireo/internal/photonics"
	"albireo/internal/units"
)

func TestLockHoldsUnderStaticOffset(t *testing.T) {
	// A fabrication offset of 2 nm (well within half an FSR) must be
	// pulled in and held far below the ring FWHM (~166 pm).
	lock := NewRingLock(1)
	rep := lock.Run(400, 2*units.Nano, 0, 0)
	if rep.SettledResidual > 10e-12 {
		t.Errorf("settled residual %.1f pm, want < 10 pm", rep.SettledResidual*1e12)
	}
	if rep.Saturated {
		t.Error("2 nm offset should not saturate a 20 mW heater")
	}
	// The steady heater power matches the tuner's requirement.
	want := photonics.NewThermalTuner().PowerForShift(2 * units.Nano)
	if math.Abs(rep.MeanHeaterPower-want)/want > 0.25 {
		t.Errorf("mean heater %.2f mW, want ~%.2f mW", rep.MeanHeaterPower*1e3, want*1e3)
	}
}

func TestLockTracksDriftAndDisturbance(t *testing.T) {
	// A slow ramp (thermal warm-up) plus a sinusoidal disturbance:
	// residual stays well inside the channel's precision budget. The
	// Figure 4c crosstalk analysis assumed rings sit exactly on their
	// channels; this shows the servo justifies that.
	lock := NewRingLock(2)
	rep := lock.Run(600, 1*units.Nano, 2e-12 /* 2 pm/step ramp */, 20e-12 /* 20 pm sine */)
	fwhm := photonics.NewMRR(1550 * units.Nano).FWHM()
	if rep.WorstResidual > fwhm/10 {
		t.Errorf("worst residual %.1f pm exceeds FWHM/10 = %.1f pm",
			rep.WorstResidual*1e12, fwhm/10*1e12)
	}
}

func TestLockSaturatesGracefully(t *testing.T) {
	// An offset beyond the heater range saturates: the report flags it
	// and the residual stays large - the condition that becomes a
	// DetunedRing fault in the architecture model.
	lock := NewRingLock(3)
	rep := lock.Run(300, 12*units.Nano, 0, 0) // needs 24 mW > 20 mW ceiling
	if !rep.Saturated {
		t.Error("12 nm offset must saturate the 20 mW heater")
	}
	if rep.SettledResidual < 1e-9 {
		t.Error("saturated servo cannot reach the setpoint")
	}
}

func TestLockHeaterNonNegative(t *testing.T) {
	// Negative offsets (ring fabricated red of the channel) cannot be
	// corrected by heating alone: power clamps at zero.
	lock := NewRingLock(4)
	lock.Run(100, -1*units.Nano, 0, 0)
	if lock.heater != 0 {
		t.Errorf("heater power %.3g should clamp at zero for red offsets", lock.heater)
	}
}

func TestLockPowerScalesWithOffset(t *testing.T) {
	// Mean heater power is proportional to the fabrication offset -
	// the statistical basis of the AverageLockPower budget.
	r1 := NewRingLock(5).Run(400, 1*units.Nano, 0, 0)
	r4 := NewRingLock(6).Run(400, 4*units.Nano, 0, 0)
	ratio := r4.MeanHeaterPower / r1.MeanHeaterPower
	if math.Abs(ratio-4) > 0.5 {
		t.Errorf("heater power ratio %.2f, want ~4", ratio)
	}
}

func TestLockReportDegenerate(t *testing.T) {
	if (LockReport{}) != NewRingLock(7).Run(0, 0, 0, 0) {
		t.Error("zero-step run should return an empty report")
	}
	rep := NewRingLock(8).Run(100, 1e-9, 0, 0)
	if rep.String() == "" {
		t.Error("String")
	}
}
