package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"albireo/internal/core"
	"albireo/internal/health"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/obs"
)

// PoolSpec is the construction-relevant description of a serving pool:
// exactly the fields the journal header records, so albireo-serve and
// albireo-replay build bit-identical pools from the same values.
type PoolSpec struct {
	// Pool is the worker count; worker i's chip uses Seed+i.
	Pool int
	// Seed is the base weight/input seed.
	Seed int64
	// Budget is the accuracy-guard relative divergence budget.
	Budget float64
	// Detune is the worker-0 fault-injection spec ("" for none),
	// in the -detune flag syntax.
	Detune string
	// KeepDegraded mirrors the fleet routing policy flag (it does not
	// change unit construction, but replay needs it to interpret the
	// recorded drain decisions).
	KeepDegraded bool
}

// BuildUnits constructs the pool: worker i is an observed,
// accuracy-guarded analog backend over a chip seeded Seed+i, with the
// Detune faults injected into worker 0 before any scan. The returned
// Guarded handles let callers wire per-worker fallback hooks (the
// journal's KindFallback records). Chip activity counters share reg
// and sum fleet-wide; reg and trace may be nil.
func BuildUnits(spec PoolSpec, reg *obs.Registry, trace *obs.Trace) ([]Unit, []*inference.Guarded, error) {
	if spec.Pool < 1 {
		return nil, nil, fmt.Errorf("fleet: pool must be >= 1, got %d", spec.Pool)
	}
	units := make([]Unit, spec.Pool)
	guards := make([]*inference.Guarded, spec.Pool)
	for i := range units {
		cfg := core.DefaultConfig()
		cfg.Seed = spec.Seed + int64(i)
		analog := inference.NewAnalog(cfg)
		analog.Chip.Instrument(reg, trace)
		if i == 0 {
			if err := InjectFaultSpecs(analog.Chip, cfg, spec.Detune); err != nil {
				return nil, nil, err
			}
		}
		guarded := inference.Guard(analog, inference.Exact{}, spec.Budget).Instrument(reg, trace)
		guards[i] = guarded
		units[i] = Unit{
			Backend: inference.Observe(guarded, reg, trace),
			Chip:    analog.Chip,
		}
	}
	return units, guards, nil
}

// InjectFaultSpecs parses and injects a -detune fault list. Each spec
// is "group,unit,tap,column,residual[,driftPerCycle]", semicolon-
// separated; the empty string injects nothing.
func InjectFaultSpecs(chip *core.Chip, cfg core.Config, specs string) error {
	for _, spec := range strings.Split(specs, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ",")
		if len(parts) != 5 && len(parts) != 6 {
			return fmt.Errorf("detune spec %q: want group,unit,tap,column,residual[,drift]", spec)
		}
		ints := make([]int, 4)
		for i := range ints {
			v, err := strconv.Atoi(strings.TrimSpace(parts[i]))
			if err != nil {
				return fmt.Errorf("detune spec %q: %v", spec, err)
			}
			ints[i] = v
		}
		residual, err := strconv.ParseFloat(strings.TrimSpace(parts[4]), 64)
		if err != nil {
			return fmt.Errorf("detune spec %q: %v", spec, err)
		}
		var driftRate float64
		if len(parts) == 6 {
			if driftRate, err = strconv.ParseFloat(strings.TrimSpace(parts[5]), 64); err != nil {
				return fmt.Errorf("detune spec %q: %v", spec, err)
			}
		}
		// Validate here so unphysical flags surface as flag errors, not
		// as the core package's invariant panics.
		if ints[2] < 0 || ints[2] >= cfg.Nm {
			return fmt.Errorf("detune spec %q: tap outside [0,%d)", spec, cfg.Nm)
		}
		if ints[3] < 0 || ints[3] >= cfg.Nd {
			return fmt.Errorf("detune spec %q: column outside [0,%d)", spec, cfg.Nd)
		}
		if residual < 0 || residual > 1 {
			return fmt.Errorf("detune spec %q: residual outside [0,1]", spec)
		}
		if driftRate < 0 {
			return fmt.Errorf("detune spec %q: drift must be >= 0", spec)
		}
		f := core.Fault{Kind: core.DetunedRing, Tap: ints[2], Column: ints[3], Value: residual, Drift: driftRate}
		if err := chip.InjectFault(ints[0], ints[1], f); err != nil {
			return fmt.Errorf("detune spec %q: %v", spec, err)
		}
	}
	return nil
}

// StartupScan reproduces the chip-state side effects of
// Scheduler.Start's BIST pass without building a scheduler: every
// chip-backed unit is scanned and its findings quarantined, exactly as
// applyReportLocked does at startup (quarantine is applied regardless
// of the routing verdict). albireo-replay runs it before re-executing
// journaled work so the rebuilt chips carry the same cycle, drift, and
// quarantine state the recorded pool started serving with.
func StartupScan(units []Unit) {
	for _, u := range units {
		if u.Chip == nil {
			continue
		}
		eng := health.New(u.Chip, health.Options{})
		if rep := eng.Scan(); !rep.Healthy() {
			eng.QuarantineFindings(rep)
		}
	}
}

// ProbeUnit reproduces one runtime re-probe cycle (runProbe's chip
// side effects) on a unit: clear quarantine so the scan sees every
// PLCU, scan, and re-quarantine whatever is still faulty. Replay
// invokes it for each journaled probe-driven drain/restore transition.
func ProbeUnit(u Unit) {
	if u.Chip == nil {
		return
	}
	u.Chip.ClearQuarantine()
	eng := health.New(u.Chip, health.Options{})
	if rep := eng.Scan(); !rep.Healthy() {
		eng.QuarantineFindings(rep)
	}
}

// JournalExecutor adapts a rebuilt pool to journal.Replay: deliver
// records execute directly on the recorded worker's backend (routing
// already happened in the recorded run; the journal pins it), shard
// records on the worker's shard backend exactly as the live sharded
// path does, and probe-driven transitions re-run a BIST cycle on the
// worker's chip. A journal is outside input, so every op is checked
// (checkOp) before it reaches a backend: a malformed one fails replay
// with an error.
type JournalExecutor struct {
	// Units is the rebuilt pool (BuildUnits output, after StartupScan).
	Units []Unit
	// merges holds the in-progress merge buffers of sharded requests,
	// keyed by admit sequence (lazily initialized).
	merges map[uint64]output
}

// unit returns the recorded worker's rebuilt unit.
func (p *JournalExecutor) unit(worker int) (Unit, error) {
	if worker < 0 || worker >= len(p.Units) {
		return Unit{}, fmt.Errorf("fleet: worker %d outside rebuilt pool of %d", worker, len(p.Units))
	}
	return p.Units[worker], nil
}

// Execute implements journal.Executor.
func (p *JournalExecutor) Execute(worker int, req *journal.Request) ([32]byte, error) {
	u, err := p.unit(worker)
	if err == nil {
		err = checkOp(req)
	}
	if err != nil {
		return [32]byte{}, err
	}
	return runWhole(u.Backend, req).hash(), nil
}

// ExecuteShard implements journal.Executor: it re-executes one
// kernel-group window on the recorded worker's shard backend, filling
// the owned slice of the request's merge buffer.
func (p *JournalExecutor) ExecuteShard(worker int, admit uint64, req *journal.Request, pos, count, of int) error {
	u, err := p.unit(worker)
	sb, spec := shardBackend(u), core.ShardSpec{Pos: pos, Count: count, Of: of}
	switch {
	case err != nil:
		return err
	case sb == nil:
		return fmt.Errorf("fleet: worker %d cannot execute shard windows", worker)
	case !shardable(req):
		return fmt.Errorf("fleet: %v op with config %+v does not shard", req.Op, req.Cfg)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	out, ok := p.merges[admit]
	if !ok {
		if err := checkOp(req); err != nil {
			return err
		}
		if p.merges == nil {
			p.merges = make(map[uint64]output)
		}
		out = newOutput(req)
		p.merges[admit] = out
	}
	runWindow(sb, req, spec, out)
	return nil
}

// FinishShard implements journal.Executor: it hashes and releases a
// sharded request's merge buffer.
func (p *JournalExecutor) FinishShard(admit uint64) ([32]byte, error) {
	out, ok := p.merges[admit]
	if !ok {
		return [32]byte{}, fmt.Errorf("fleet: merged deliver for admit %d without shard records", admit)
	}
	delete(p.merges, admit)
	return out.hash(), nil
}

// Probe implements journal.Executor.
func (p *JournalExecutor) Probe(worker int) error {
	u, err := p.unit(worker)
	if err != nil {
		return err
	}
	ProbeUnit(u)
	return nil
}
