package core

import "fmt"

// Fault models a hardware defect in a PLCU, for reliability studies of
// the analog fabric. Analog photonic accelerators cannot detect most
// of these faults architecturally - the computation silently degrades -
// so the functional simulator exposes them for failure-injection
// testing and for sizing redundancy. internal/health builds the other
// half of the story: a built-in self-test that localizes these defect
// classes from probe responses so the chip can quarantine around them.
type FaultKind int

const (
	// StuckMZM pins a weight modulator at a fixed transfer value
	// (e.g. a failed phase-shifter junction): every wavelength on that
	// tap is multiplied by Value instead of |w|.
	StuckMZM FaultKind = iota
	// DeadRing disables a switching MRR: the (Tap, Column) signal
	// never reaches its accumulation waveguide.
	DeadRing
	// DetunedRing leaves a switching MRR partially off-resonance
	// (e.g. a failed thermal tuner): only Value (0..1) of the signal
	// couples, and the ring's crosstalk behaviour is unchanged.
	DetunedRing
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case StuckMZM:
		return "stuck-mzm"
	case DeadRing:
		return "dead-ring"
	case DetunedRing:
		return "detuned-ring"
	default:
		return "unknown"
	}
}

// Fault is one injected defect.
type Fault struct {
	Kind FaultKind
	// Tap is the MZM / kernel position (0..Nm-1).
	Tap int
	// Column is the PD column for ring faults (ignored for StuckMZM).
	Column int
	// Value is the stuck transfer (StuckMZM) or residual coupling
	// (DetunedRing). Both are transmission fractions in [0, 1].
	Value float64
	// Drift, for DetunedRing only, models progressive thermal detuning:
	// the residual coupling decays by Drift per modulation cycle
	// (clamped at 0), so a ring that starts healthy worsens as the
	// chip runs - the soft failure a broken tuning-control loop causes.
	Drift float64
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	if f.Drift > 0 {
		return fmt.Sprintf("%s{tap=%d col=%d v=%.2f drift=%.2e/cyc}", f.Kind, f.Tap, f.Column, f.Value, f.Drift)
	}
	return fmt.Sprintf("%s{tap=%d col=%d v=%.2f}", f.Kind, f.Tap, f.Column, f.Value)
}

// InjectFault adds a defect to the PLCU. Faults apply to every
// subsequent cycle until ClearFaults. The fault must be
// physically representable: taps and columns inside the device grid,
// transfer values inside [0, 1], and drift (DetunedRing only)
// non-negative.
func (p *PLCU) InjectFault(f Fault) {
	if f.Tap < 0 || f.Tap >= p.cfg.Nm {
		panic(fmt.Sprintf("core: fault tap %d out of range", f.Tap)) //lint:ignore exit-hygiene fault tap outside hardware range; caller bug
	}
	if f.Kind != StuckMZM && (f.Column < 0 || f.Column >= p.cfg.Nd) {
		panic(fmt.Sprintf("core: fault column %d out of range", f.Column)) //lint:ignore exit-hygiene fault column outside hardware range; caller bug
	}
	switch f.Kind {
	case StuckMZM:
		if !(f.Value >= 0 && f.Value <= 1) {
			panic(fmt.Sprintf("core: stuck transfer %g outside [0,1]; an MZM transmits a fraction of its input", f.Value)) //lint:ignore exit-hygiene unphysical fault parameter; caller bug
		}
	case DetunedRing:
		if !(f.Value >= 0 && f.Value <= 1) {
			panic(fmt.Sprintf("core: residual coupling %g outside [0,1]; a detuned ring couples a fraction of its input", f.Value)) //lint:ignore exit-hygiene unphysical fault parameter; caller bug
		}
	}
	if !(f.Drift >= 0) {
		panic(fmt.Sprintf("core: drift %g must be non-negative; thermal detuning only loses coupling", f.Drift)) //lint:ignore exit-hygiene unphysical fault parameter; caller bug
	}
	if f.Drift > 0 && f.Kind != DetunedRing {
		panic("core: drift models progressive detuning; only DetunedRing faults drift") //lint:ignore exit-hygiene unphysical fault parameter; caller bug
	}
	p.faults = append(p.faults, f)
	p.faultEpoch++
	p.rebuildRingGains()
}

// ClearFaults removes all injected defects. No production path
// repairs hardware; it stays for the tests that model a repaired unit
// (the fleet's re-probe and restore tests).
//
//lint:ignore unreachable TestFleetReprobeRestores models a re-locked ring with it
func (p *PLCU) ClearFaults() {
	p.faults = nil
	p.faultEpoch++
	p.rebuildRingGains()
}

// driftingRing marks a gains entry whose ring has a drifting fault: its
// gain depends on the cycle counter, so accumulate calls ringGain.
const driftingRing = -1

// rebuildRingGains recomputes the static ring-gain table from the fault
// list. A ring without a drifting fault has a cycle-independent gain,
// so ringGain's value for it is computed once here. With no ring
// faults at all the table is nil: every gain would be exactly 1.
func (p *PLCU) rebuildRingGains() {
	p.gains = nil
	for _, f := range p.faults {
		if f.Kind == StuckMZM {
			continue
		}
		if p.gains == nil {
			nd := p.cfg.Nd
			p.gains = make([]float64, p.cfg.Nm*nd)
			for t := 0; t < p.cfg.Nm; t++ {
				for d := 0; d < nd; d++ {
					p.gains[t*nd+d] = p.ringGain(t, d)
				}
			}
		}
		if f.Drift > 0 {
			p.gains[f.Tap*p.cfg.Nd+f.Column] = driftingRing
		}
	}
}

// effectiveWeight applies StuckMZM faults to the quantized weight of a
// tap: the sign routing is set by the programmed weight (the rings are
// still switched by the controller), but the magnitude is pinned.
func (p *PLCU) effectiveWeight(tap int, w float64) float64 {
	for _, f := range p.faults {
		if f.Kind == StuckMZM && f.Tap == tap {
			if w < 0 {
				return -f.Value
			}
			return f.Value
		}
	}
	return w
}

// ringGain returns the drop efficiency multiplier for the switching
// ring at (tap, column): 1 when healthy, 0 for DeadRing, the residual
// coupling for DetunedRing. A drifting detuned ring loses Drift of
// residual coupling per elapsed modulation cycle, so the same fault
// reads progressively worse as the chip runs. accumulate reads the
// static gains table instead, and calls ringGain only for drifting
// rings.
func (p *PLCU) ringGain(tap, column int) float64 {
	g := 1.0
	for _, f := range p.faults {
		if f.Tap != tap || f.Column != column {
			continue
		}
		switch f.Kind {
		case DeadRing:
			g = 0
		case DetunedRing:
			residual := f.Value
			if f.Drift > 0 {
				residual -= float64(f.Drift * float64(p.cycles))
			}
			g *= clampUnit(residual)
		}
	}
	return g
}

func clampUnit(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
