// Package control models the resonance-locking control loop every
// Albireo MRR needs in deployment: silicon's thermo-optic coefficient
// drifts a ring's resonance with ambient temperature (~62 pm/K at
// 1550 nm), and an uncontrolled drift of one FWHM (~166 pm, under 3 K)
// would silently destroy the computation. A per-ring PI servo steers
// the micro-heater to hold the ring on its channel - this is where the
// Table I MRR tuning power goes, and its failure mode is exactly the
// DetunedRing fault of internal/core.
package control

import (
	"fmt"
	"math"
	"math/rand"

	"albireo/internal/photonics"
	"albireo/internal/units"
)

// RingLock is a PI controller steering one ring's heater.
type RingLock struct {
	// Tuner converts heater power to resonance shift.
	Tuner photonics.ThermalTuner
	// Kp, Ki are the proportional and integral gains (units: watts of
	// heater power per meter of detune).
	Kp, Ki float64
	// SensorSigma is the detune-measurement noise (meters), e.g. from
	// a dithered monitor photodiode.
	SensorSigma float64

	heater   float64 // current heater power, watts
	integral float64 // integral of detune error, meter-steps
	rng      *rand.Rand
}

// NewRingLock returns a servo with gains that settle in a few steps
// for the Table II ring.
func NewRingLock(seed int64) *RingLock {
	t := photonics.NewThermalTuner()
	// A 1 pm error should command on the order of its corrective
	// power: 1 pm / (0.5 nm/mW) = 2 uW. Kp of ~1 W/nm gives that with
	// margin; Ki a tenth of Kp per step.
	return &RingLock{
		Tuner:       t,
		Kp:          2 * units.Mega, // W per meter of detune (= 2 uW/pm)
		Ki:          4e5,
		SensorSigma: 2 * units.Pico, // 2 pm measurement noise
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Step closes the loop once: ambientShift is the open-loop resonance
// error (meters) the environment imposes this step; the servo measures
// the residual detune (with sensor noise), updates the heater, and
// returns the true residual detune after actuation.
func (r *RingLock) Step(ambientShift float64) float64 {
	// The heater red-shifts the resonance; with the ring fabricated
	// blue of its channel, heater power cancels positive ambient
	// error. Residual = ambient - heater-induced shift.
	heaterShift := r.heater / units.Milli * r.Tuner.EfficiencyNMPerMW * units.Nano
	residual := ambientShift - heaterShift
	measured := residual + r.rng.NormFloat64()*r.SensorSigma

	r.integral += measured
	r.heater += r.Kp*measured + r.Ki*r.integral
	if r.heater < 0 {
		r.heater = 0
	}
	if r.heater > r.Tuner.MaxPower {
		r.heater = r.Tuner.MaxPower
	}
	return residual
}

// LockReport summarizes a closed-loop run.
type LockReport struct {
	// SettledResidual is the RMS residual detune (meters) over the
	// final quarter of the run.
	SettledResidual float64
	// WorstResidual is the largest |detune| after the settling period.
	WorstResidual float64
	// MeanHeaterPower is the average heater drive (watts) - the power
	// the Table I MRR row must cover.
	MeanHeaterPower float64
	// Saturated reports whether the heater hit its ceiling.
	Saturated bool
}

// Run simulates steps of a drifting environment: a fabrication offset
// plus a slow thermal ramp plus sinusoidal disturbance, all expressed
// as open-loop resonance error in meters.
func (r *RingLock) Run(steps int, fabOffset, rampPerStep, sineAmp float64) LockReport {
	if steps <= 0 {
		return LockReport{}
	}
	var rep LockReport
	settleStart := steps * 3 / 4
	var sum2 float64
	var n int
	var heaterSum float64
	for i := 0; i < steps; i++ {
		ambient := fabOffset + rampPerStep*float64(i) +
			sineAmp*math.Sin(2*math.Pi*float64(i)/40)
		res := r.Step(ambient)
		heaterSum += r.heater
		if r.heater >= r.Tuner.MaxPower {
			rep.Saturated = true
		}
		if i >= settleStart {
			sum2 += res * res
			n++
			if a := math.Abs(res); a > rep.WorstResidual {
				rep.WorstResidual = a
			}
		}
	}
	rep.SettledResidual = math.Sqrt(sum2 / float64(n))
	rep.MeanHeaterPower = heaterSum / float64(steps)
	return rep
}

// String implements fmt.Stringer.
func (rep LockReport) String() string {
	return fmt.Sprintf("lock{rms %.2f pm, worst %.2f pm, heater %.2f mW, sat=%v}",
		rep.SettledResidual*units.Tera, rep.WorstResidual*units.Tera,
		rep.MeanHeaterPower*units.Kilo, rep.Saturated)
}
