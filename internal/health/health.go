// Package health implements a built-in self-test (BIST) for the
// Albireo analog fabric. Analog photonic compute fails silently: a
// stuck modulator or a detuned switching ring just skews every dot
// product it touches, and nothing in the datapath raises an error. The
// BIST engine closes that gap by driving deterministic probe vectors
// through each PLCU, comparing the observed photocurrents against the
// closed-form healthy response, and localizing any deviation to an
// exact (group, unit, tap, column) coordinate with a fault
// classification. Findings feed the chip's quarantine scheduler
// (core.Chip.Quarantine), which remaps work around the bad unit - the
// detect -> localize -> quarantine -> degrade-gracefully loop.
//
// Probe design. A probe lights exactly one tap at a known level and
// exactly one PD column at activation 1; every other input is dark.
// With a single lit column there is no crosstalk contribution (the
// leakage terms multiply dark columns), so the healthy response of the
// probed column is exactly the DAC-quantized probe weight:
//
//	Dot(probe)[col] = ringGain(tap, col) * QuantizeWeight(level)
//
// Each (tap, column) is probed at two levels. Normalizing by the
// quantized level separates the fault classes:
//
//   - a healthy ring reads ~1 at both levels;
//   - a DeadRing reads ~0 at both levels;
//   - a DetunedRing reads its residual coupling, equal at both levels;
//   - a StuckMZM reads the same *absolute* response at both levels, so
//     its normalized low-level response is ~2x its high-level one - the
//     level-independence signature that distinguishes a stuck modulator
//     from a ring fault.
//
// Probes are averaged over 16 cycles (repeats) to ride out the
// shot/RIN/thermal noise of the receiver model; thresholds below are
// calibrated against the default noise configuration. Probing drives
// the real unit, so it advances the unit's modulation-cycle count and
// noise stream exactly as real work would - a drifting fault observed
// mid-decay is reported at its current severity.
package health

import (
	"encoding/json"
	"errors"
	"fmt"

	"albireo/internal/core"
	"albireo/internal/obs"
)

// Metric names emitted by the BIST engine.
const (
	// MetricProbes counts probe cycles driven through PLCUs.
	MetricProbes = "albireo_bist_probes_total"
	// MetricScans counts completed chip scans.
	MetricScans = "albireo_bist_scans_total"
	// MetricFaultsDetected counts localized faults by classification
	// (label kind="stuck-mzm"|"dead-ring"|"detuned-ring").
	MetricFaultsDetected = "albireo_bist_faults_detected_total"
)

// Options is the BIST engine's option set. It has no fields: the probe
// schedule and classification thresholds are the constants below.
type Options struct{}

// The probe schedule and classification thresholds, calibrated for the
// default noise configuration: 16-cycle averaging puts the probe noise
// floor well under the 0.12/0.2 decision margins.
const (
	// levelHigh and levelLow are the two probe weight amplitudes, full
	// and half scale. They must be distinct so stuck modulators are
	// separable from ring faults.
	levelHigh, levelLow = 1.0, 0.5
	// repeats averages each (tap, column, level) probe over this many
	// modulation cycles to suppress receiver noise.
	repeats = 16
	// deadThreshold is the normalized response at or below which a ring
	// is classified dead.
	deadThreshold = 0.12
	// healthyTolerance is the allowed |response - 1| of a normalized
	// high-level probe before a ring is classified detuned.
	healthyTolerance = 0.2
	// stuckRatioTolerance is the allowed deviation of the low/high
	// normalized response ratio from the stuck-modulator signature
	// (QuantizeWeight(high)/QuantizeWeight(low)) before the
	// level-independence test rejects the stuck classification.
	stuckRatioTolerance = 0.25
)

// Finding is one localized fault: the exact device coordinate, the
// classified defect kind, and the estimated transfer parameter.
type Finding struct {
	Unit core.UnitRef `json:"unit"`
	// Kind is the classified defect.
	Kind core.FaultKind `json:"-"`
	// KindName is Kind's display name (serialized form).
	KindName string `json:"kind"`
	// Tap is the MZM position (0..Nm-1).
	Tap int `json:"tap"`
	// Column is the PD column for ring faults; -1 for stuck modulators
	// (a stuck MZM skews every column on its tap).
	Column int `json:"column"`
	// Value estimates the defect parameter: the stuck transfer for
	// StuckMZM, the residual coupling for DetunedRing, 0 for DeadRing.
	Value float64 `json:"value"`
}

// String implements fmt.Stringer.
func (f Finding) String() string {
	if f.Column < 0 {
		return fmt.Sprintf("%s@%s tap=%d v=%.2f", f.Kind, f.Unit, f.Tap, f.Value)
	}
	return fmt.Sprintf("%s@%s tap=%d col=%d v=%.2f", f.Kind, f.Unit, f.Tap, f.Column, f.Value)
}

// Report is the outcome of one full chip scan.
type Report struct {
	// UnitsChecked counts PLCUs probed (quarantined units are skipped -
	// they are already out of service).
	UnitsChecked int `json:"units_checked"`
	// Probes counts modulation cycles spent probing.
	Probes int64 `json:"probes"`
	// Findings lists localized faults in (group, unit, tap, column)
	// order.
	Findings []Finding `json:"findings"`
}

// Healthy reports whether the scan found a fully functional fabric.
func (r Report) Healthy() bool { return len(r.Findings) == 0 }

// FaultyUnits returns the distinct units with findings, in scan order.
func (r Report) FaultyUnits() []core.UnitRef {
	var out []core.UnitRef
	seen := map[core.UnitRef]bool{}
	for _, f := range r.Findings {
		if !seen[f.Unit] {
			seen[f.Unit] = true
			out = append(out, f.Unit)
		}
	}
	return out
}

// JSON renders the report as an indented JSON document.
//
//lint:ignore unreachable TestScanObservability checks the report's JSON form with it
func (r Report) JSON() ([]byte, error) {
	if r.Findings == nil {
		r.Findings = []Finding{}
	}
	return json.MarshalIndent(r, "", "  ")
}

// Engine drives BIST scans over one chip.
type Engine struct {
	chip *core.Chip

	reg      *obs.Registry
	trace    *obs.Trace
	probes   *obs.Counter
	scans    *obs.Counter
	detected map[core.FaultKind]*obs.Counter
}

// New builds a BIST engine for the chip.
func New(chip *core.Chip, _ Options) *Engine {
	return &Engine{chip: chip}
}

// Instrument attaches an observability registry and/or trace. Either
// may be nil.
func (e *Engine) Instrument(reg *obs.Registry, trace *obs.Trace) {
	e.reg = reg
	e.trace = trace
	e.probes = reg.Counter(MetricProbes)
	e.scans = reg.Counter(MetricScans)
	e.detected = map[core.FaultKind]*obs.Counter{}
	for _, k := range []core.FaultKind{core.StuckMZM, core.DeadRing, core.DetunedRing} {
		e.detected[k] = reg.Counter(MetricFaultsDetected, obs.L("kind", k.String()))
	}
}

// Scan probes every in-service PLCU and returns the localized
// findings. Quarantined units are skipped.
func (e *Engine) Scan() Report {
	cfg := e.chip.Config()
	quarantined := map[core.UnitRef]bool{}
	for _, u := range e.chip.Quarantined() {
		quarantined[u] = true
	}
	sp := e.trace.StartSpan("bist/scan")
	var rep Report
	for gi, g := range e.chip.Groups() {
		for ui, unit := range g.Units() {
			ref := core.UnitRef{Group: gi, Unit: ui}
			if quarantined[ref] {
				continue
			}
			rep.UnitsChecked++
			findings, probes := e.scanUnit(cfg, ref, unit)
			rep.Probes += probes
			for _, f := range findings {
				rep.Findings = append(rep.Findings, f)
				if e.detected != nil {
					e.detected[f.Kind].Inc()
				}
				sp.Event(obs.FaultDetected, f.Kind.String(),
					obs.Int("plcg", int64(f.Unit.Group)),
					obs.Int("plcu", int64(f.Unit.Unit)),
					obs.Int("tap", int64(f.Tap)),
					obs.Int("column", int64(f.Column)),
					obs.String("value", fmt.Sprintf("%.3f", f.Value)))
			}
		}
	}
	e.scans.Inc()
	sp.End(obs.Int("units_checked", int64(rep.UnitsChecked)),
		obs.Int("findings", int64(len(rep.Findings))))
	return rep
}

// scanUnit probes one PLCU tap by tap and classifies deviations.
func (e *Engine) scanUnit(cfg core.Config, ref core.UnitRef, unit *core.PLCU) ([]Finding, int64) {
	weights := make([]float64, cfg.Nm)
	avals := make([][]float64, cfg.Nm)
	for t := range avals {
		avals[t] = make([]float64, cfg.Nd)
	}
	out := make([]float64, cfg.Nd)
	var probes int64

	// probe measures the normalized response of one (tap, column) at
	// one level, averaged over Repeats cycles.
	probe := func(tap, col int, level float64) float64 {
		weights[tap] = level
		avals[tap][col] = 1
		var sum float64
		for r := 0; r < repeats; r++ {
			sum += unit.DotInto(out, weights, avals)[col]
			probes++
		}
		weights[tap] = 0
		avals[tap][col] = 0
		return sum / float64(repeats) / unit.QuantizeWeight(level)
	}

	var findings []Finding
	// stuckRatio is the low/high normalized response ratio a stuck
	// modulator produces: the absolute response is level-independent,
	// so dividing by the smaller quantized level inflates it.
	stuckRatio := unit.QuantizeWeight(levelHigh) / unit.QuantizeWeight(levelLow)
	hi := make([]float64, cfg.Nd)
	lo := make([]float64, cfg.Nd)
	for tap := 0; tap < cfg.Nm; tap++ {
		var hiSum, loSum float64
		lit := 0
		for col := 0; col < cfg.Nd; col++ {
			hi[col] = probe(tap, col, levelHigh)
			lo[col] = probe(tap, col, levelLow)
			if hi[col] > deadThreshold {
				lit++
				hiSum += hi[col]
				loSum += lo[col]
			}
		}
		if lit == 0 {
			// Nothing reaches any column: the shared modulator is stuck
			// dark (indistinguishable from - and equivalent to - every
			// ring on the tap being dead; one modulator beats Nd rings on
			// the single-defect prior).
			findings = append(findings, Finding{
				Unit: ref, Kind: core.StuckMZM, KindName: core.StuckMZM.String(),
				Tap: tap, Column: -1, Value: 0,
			})
			continue
		}
		ratio := loSum / hiSum
		if ratio > stuckRatio-stuckRatioTolerance && ratio < stuckRatio+stuckRatioTolerance {
			// Level-independent response across the lit columns: the tap's
			// modulator is stuck. Its transfer is the mean absolute
			// high-level response.
			findings = append(findings, Finding{
				Unit: ref, Kind: core.StuckMZM, KindName: core.StuckMZM.String(),
				Tap: tap, Column: -1,
				Value: clampUnit(hiSum / float64(lit) * unit.QuantizeWeight(levelHigh)),
			})
			continue
		}
		for col := 0; col < cfg.Nd; col++ {
			switch {
			case hi[col] <= deadThreshold:
				findings = append(findings, Finding{
					Unit: ref, Kind: core.DeadRing, KindName: core.DeadRing.String(),
					Tap: tap, Column: col, Value: 0,
				})
			case hi[col] < 1-healthyTolerance || hi[col] > 1+healthyTolerance:
				findings = append(findings, Finding{
					Unit: ref, Kind: core.DetunedRing, KindName: core.DetunedRing.String(),
					Tap: tap, Column: col, Value: clampUnit(hi[col]),
				})
			}
		}
	}
	if e.probes != nil {
		e.probes.Add(probes)
	}
	return findings, probes
}

// QuarantineFindings takes every unit named in the report's findings
// out of service via the chip's quarantine scheduler. It returns the
// units actually quarantined; units the scheduler refuses (already
// quarantined, or the last healthy unit on the chip) are reported in
// the joined error while the rest proceed - graceful degradation keeps
// as much of the chip serviceable as it safely can.
func (e *Engine) QuarantineFindings(rep Report) ([]core.UnitRef, error) {
	var done []core.UnitRef
	var errs []error
	for _, u := range rep.FaultyUnits() {
		if err := e.chip.Quarantine(u.Group, u.Unit); err != nil {
			errs = append(errs, err)
			continue
		}
		done = append(done, u)
	}
	return done, errors.Join(errs...)
}

// clampUnit clamps x into [0, 1] for reporting estimated transfers.
func clampUnit(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
