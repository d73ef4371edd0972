package perf

import (
	"fmt"

	"albireo/internal/core"
	"albireo/internal/nn"
)

// EvaluateMultiChip models a scale-out deployment: n identical Albireo
// chips, each with its own laser bank and signal-generation path,
// splitting a layer's kernels between them (the natural extension of
// the paper's kernel-parallel broadcast - Section III-C notes more
// PLCGs raise parallelism at proportional area and power). Inputs are
// replicated to every chip electronically, so there is no cross-chip
// optical path; each chip behaves exactly like the single-chip design
// with its share of the kernels.
func EvaluateMultiChip(cfg core.Config, model nn.Model, chips int) Result {
	if chips < 1 {
		chips = 1
	}
	// Latency: kernels split across chips*Ng PLCGs.
	latCfg := cfg
	latCfg.Ng = cfg.Ng * chips
	lat := latCfg.MapModel(model).Latency()

	// Power and area: n full chips (each keeps its own 63-laser bank
	// and distribution fabric - the census does not dilute).
	census := NewCensus(cfg)
	power := census.Power(cfg.Estimate).Total() * float64(chips)
	area := census.Area().Total() * float64(chips)
	active := census.ActiveArea() * float64(chips)

	energy := power * lat
	return Result{
		Model:      model.Name,
		Design:     fmt.Sprintf("Albireo-%s x%d (Ng=%d each)", cfg.Estimate, chips, cfg.Ng),
		Latency:    lat,
		Energy:     energy,
		EDP:        energy * lat,
		Power:      power,
		MACs:       model.TotalMACs(),
		Area:       area,
		ActiveArea: active,
	}
}

// ShardLatencyTicks prices a single sharded inference on a pool in
// the fleet's virtual-time service model. The of residue classes are
// apportioned across the workers by core.PartitionShards over their
// routing weights (healthy-PLCU counts, so a degraded chip holds a
// narrower window), every shard executes concurrently, and the merge
// barrier completes when the widest window does. A window of count
// classes costs programTicks + ceil(requestTicks*count/of): weight
// programming is paid once per chip regardless of the window, which
// is exactly why the speedup saturates below the pool count. Mirrors
// fleet.ServiceModel.ShardTicks plus the placement policy, including
// the fleet's refusal to fan out below two non-empty windows (the
// whole-request path then prices as one plain single-request batch).
//
//lint:ignore unreachable TestShardSpeedupMatchesMeasuredFleet holds the fleet's measured shard latency to it
func ShardLatencyTicks(programTicks, requestTicks int64, of int, weights []int64) int64 {
	base := programTicks + requestTicks
	if base < 1 {
		base = 1
	}
	if of <= 0 || len(weights) == 0 {
		return base
	}
	placed := 0
	var worst int64
	for _, win := range core.PartitionShards(of, weights) {
		if win.Count <= 0 {
			continue
		}
		placed++
		work := (requestTicks*int64(win.Count) + int64(of) - 1) / int64(of)
		if d := programTicks + work; d > worst {
			worst = d
		}
	}
	if placed < 2 {
		return base
	}
	if worst < 1 {
		worst = 1
	}
	return worst
}

// ShardSpeedup is the analytic single-inference speedup of the
// kernel-group fan-out over whole-request dispatch on the same pool:
// BatchTicks(1) / ShardLatencyTicks. It is a pure function of the
// service model, the shard modulus, and the placement weights, and it
// is cross-validated against the measured fleet in
// scaleout_shard_test.go.
//
//lint:ignore unreachable TestShardSpeedupMatchesMeasuredFleet holds the fleet's measured shard latency to it
func ShardSpeedup(programTicks, requestTicks int64, of int, weights []int64) float64 {
	base := programTicks + requestTicks
	if base < 1 {
		base = 1
	}
	return float64(base) / float64(ShardLatencyTicks(programTicks, requestTicks, of, weights))
}

// ScaleOutCurve evaluates 1..maxChips and returns the results, for
// strong-scaling studies.
func ScaleOutCurve(cfg core.Config, model nn.Model, maxChips int) []Result {
	out := make([]Result, 0, maxChips)
	for n := 1; n <= maxChips; n++ {
		out = append(out, EvaluateMultiChip(cfg, model, n))
	}
	return out
}
