// Package load is the tail-latency measurement substrate: an
// open-loop load generator for the fleet scheduler and the
// albireo-serve HTTP path. Open-loop means arrivals are scheduled by
// an external (Poisson) process that does not slow down when the
// system does - the methodology that avoids coordinated omission,
// where a closed-loop client waiting on slow responses stops issuing
// exactly the requests that would have observed the queueing it
// caused. Latency is measured from each request's scheduled arrival,
// so a stalled server owes latency for every arrival it displaced.
//
// The fleet driver runs the scheduler in virtual-time mode: service
// is priced in linger ticks by fleet.ServiceModel and every latency
// stamp and shedding decision is a pure function of (seed, rate,
// ticks, pool), which is what lets cmd/albireo-loadgen emit
// byte-identical BENCH_serve.json reports and CI gate p99 against a
// committed baseline. The HTTP driver (RunHTTP) measures the real
// wire path in wall time through an injected obs.Clock and is for
// exploration, not gating.
package load

import (
	"context"
	"errors"
	"fmt"

	"albireo/internal/fleet"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// Config describes one open-loop measurement point against the fleet.
type Config struct {
	// Rate is the offered load in requests per tick (Poisson mean).
	Rate float64
	// Ticks is the arrival window length; arrivals stop after it and
	// the driver ticks on until the queue drains.
	Ticks int
	// Seed seeds the arrival process and the workload tensors.
	Seed int64
	// KernelM is the conv's output channel count (default 4).
	KernelM int
	// Shard turns on kernel-group fan-out: each conv splits across the
	// pool at the residue-class boundary and merges, so a point
	// measures single-inference scale-out latency instead of
	// whole-request throughput.
	Shard bool
}

// A point convolves one inZ x inSize x inSize input with taps x taps
// kernels from mix weight banks that requests rotate through. Distinct
// banks cannot coalesce, so mix > 1 keeps the micro-batcher honest
// instead of feeding it one giant key. The post-window drain is
// bounded by maxDrainTicks: exceeding it is an error, not a hang.
const (
	inZ, inSize, taps, mix = 3, 8, 3, 2
	maxDrainTicks          = 100000
)

// Result is the raw outcome of one measurement point.
type Result struct {
	// Issued counts every submission attempt; Issued = Admitted + Shed.
	Issued int64
	// Admitted, Completed, and Shed mirror the fleet counters.
	Admitted, Completed, Shed int64
	// WindowTicks is the arrival window; TotalTicks includes drain.
	WindowTicks int
	TotalTicks  int64
	// Stages holds the latency decomposition of every completed
	// request in submission order.
	Stages []fleet.StageTicks
	// Snapshot is the scheduler's final registry state, for
	// reconciling the per-request view against the histograms.
	Snapshot obs.Snapshot
}

// RunPoint measures one (rate, pool) point: it builds a virtual-time
// scheduler over units, drives the scripted Poisson arrival trace
// through it, drains, and returns every latency decomposition. The
// VirtualTime option is forced on - this harness exists to produce
// seed-reproducible numbers - and the scheduler is private to the
// point, so consecutive points never share queue state.
func RunPoint(cfg Config, opt fleet.Options, units ...fleet.Unit) (Result, error) {
	if cfg.KernelM <= 0 {
		cfg.KernelM = 4
	}
	if cfg.Rate <= 0 || cfg.Ticks <= 0 {
		return Result{}, fmt.Errorf("load: need positive rate and ticks, got %g and %d", cfg.Rate, cfg.Ticks)
	}
	opt.VirtualTime = true
	if cfg.Shard {
		opt.Shard = true
	}
	reg := obs.NewRegistry()
	s, err := fleet.New(opt, units...)
	if err != nil {
		return Result{}, err
	}
	s.Instrument(reg, nil)
	if err := s.Start(); err != nil {
		return Result{}, err
	}

	in := tensor.RandomVolume(inZ, inSize, inSize, cfg.Seed)
	weights := make([]*tensor.Kernels, mix)
	for i := range weights {
		weights[i] = tensor.RandomKernels(cfg.KernelM, inZ, taps, taps, cfg.Seed*100+int64(i))
	}
	conv := tensor.ConvConfig{Stride: 1, Pad: 1}

	ctx := context.Background()
	arrivals := Arrivals(cfg.Rate, cfg.Ticks, cfg.Seed)
	res := Result{WindowTicks: cfg.Ticks}
	var futures []*fleet.Future
	for _, n := range arrivals {
		for i := 0; i < n; i++ {
			futures = append(futures, s.ConvAsync(ctx, in, weights[res.Issued%mix], conv, true))
			res.Issued++
		}
		s.Tick()
	}
	for drained := 0; s.InFlight() > 0; drained++ {
		if drained >= maxDrainTicks {
			return Result{}, fmt.Errorf("load: drain exceeded %d ticks with %d in flight", maxDrainTicks, s.InFlight())
		}
		s.Tick()
	}

	for i, f := range futures {
		if _, err := f.Volume(); err != nil {
			if errors.Is(err, fleet.ErrOverloaded) {
				res.Shed++
				continue
			}
			return Result{}, fmt.Errorf("load: request %d: %w", i, err)
		}
		st, ok := f.Stages()
		if !ok {
			return Result{}, fmt.Errorf("load: request %d delivered but stages not final", i)
		}
		res.Completed++
		res.Stages = append(res.Stages, st)
	}
	res.Admitted = res.Issued - res.Shed
	res.TotalTicks = s.Ticks()
	if err := s.Close(ctx); err != nil {
		return Result{}, err
	}
	res.Snapshot = reg.Snapshot()
	return res, nil
}

// NullUnits builds n chipless pool members on NullBackend - the
// workload for latency measurements where only queueing matters.
func NullUnits(n int) []fleet.Unit {
	units := make([]fleet.Unit, n)
	for i := range units {
		units[i] = fleet.Unit{Backend: NullBackend{}}
	}
	return units
}
