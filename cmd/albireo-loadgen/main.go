// Command albireo-loadgen is the open-loop tail-latency harness: it
// sweeps offered load (Poisson arrivals, seeded) across fleet pool
// sizes, measures every request's per-stage latency decomposition in
// virtual time, and emits BENCH_serve.json - p50/p90/p99/p999,
// achieved vs offered rate, shed fraction, and the stage breakdown
// per (pool, rate) point.
//
// Virtual time is what makes the artifact gateable: the fleet prices
// service in linger ticks (fleet.ServiceModel), so the whole report
// is a pure function of its flags and two runs with the same seed are
// byte-identical. check.sh runs the sweep every build and fails when
// a point's p99 regresses past the committed bench_serve_baseline.json
// (mirroring the allocs/op gate); -extra-latency exists to prove the
// gate trips.
//
// Usage:
//
//	albireo-loadgen -json BENCH_serve.json -baseline bench_serve_baseline.json
//	albireo-loadgen -rates 0.2,0.8,1.1 -pools 1,2 -ticks 400
//	albireo-loadgen -selftest               # determinism smoke: run twice, compare, hash
//	albireo-loadgen -http http://127.0.0.1:8080/v1/infer -http-rate 50
//
// The -http mode drives a live albireo-serve endpoint in wall time
// through the injected clock; it explores a deployment and is never
// gated.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"albireo/internal/fleet"
	"albireo/internal/load"
	"albireo/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "albireo-loadgen:", err)
		os.Exit(1)
	}
}

// sweepConfig is everything a deterministic sweep depends on.
type sweepConfig struct {
	rates        []float64
	pools        []int
	ticks        int
	seed         int64
	queue        int
	batch        int
	linger       int
	programTicks int64
	requestTicks int64
	// Sharded scale-out points: a low-rate single-inference workload
	// whose kernel groups fan out across each pool size, priced at
	// shardRequestTicks steady state.
	shardPools        []int
	shardRate         float64
	shardRequestTicks int64
}

// run is the whole tool behind a single exit point so tests can drive
// it end to end.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("albireo-loadgen", flag.ContinueOnError)
	rates := fs.String("rates", "0.2,0.5,0.8,1.1", "offered rates to sweep, in requests per tick (comma-separated)")
	pools := fs.String("pools", "1,2", "fleet pool sizes to sweep (comma-separated)")
	ticks := fs.Int("ticks", 400, "arrival window per point, in ticks")
	seed := fs.Int64("seed", 1, "arrival-process and workload seed")
	queue := fs.Int("queue", 64, "admission queue depth; offered load past capacity sheds")
	batch := fs.Int("batch", 8, "max requests coalesced into one micro-batch")
	linger := fs.Int("linger", 2, "max ticks a partial batch lingers for more compatible requests, only while every eligible worker is busy")
	programTicks := fs.Int64("program-ticks", 2, "virtual service ticks charged once per batch (MZM weight programming)")
	requestTicks := fs.Int64("request-ticks", 1, "virtual service ticks charged per request in a batch")
	extraLatency := fs.Int64("extra-latency", 0, "extra per-request service ticks; injects a deliberate regression to prove the gate trips")
	shardPools := fs.String("shard-pools", "1,2,4", `pool sizes for the sharded scale-out points; "" skips them`)
	shardRate := fs.Float64("shard-rate", 0.02, "offered rate for the sharded points: low enough that each inference's latency is its own, not queueing")
	shardRequestTicks := fs.Int64("shard-request-ticks", 18, "steady-state service ticks of the sharded points' single inference (split across the owned kernel-group fraction)")
	jsonPath := fs.String("json", "", "write BENCH_serve.json to this file")
	baseline := fs.String("baseline", "", "baseline JSON; fail if any point's p99 regresses past it")
	slack := fs.Float64("p99-slack", 0.15, "fractional p99 headroom over the baseline (plus 1 tick absolute) before failing")
	selftest := fs.Bool("selftest", false, "determinism smoke: run a fixed tiny sweep twice, require byte-identical artifacts, print their hash")
	httpURL := fs.String("http", "", "drive a live /v1/infer endpoint in wall time instead of the virtual-time fleet")
	httpRate := fs.Float64("http-rate", 20, "offered rate for -http, in requests per second")
	httpDur := fs.Duration("http-duration", 2*time.Second, "arrival window for -http")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *selftest {
		return runSelftest(out)
	}
	if *httpURL != "" {
		res, err := load.RunHTTP(context.Background(), load.HTTPConfig{
			URL:      *httpURL,
			Rate:     *httpRate,
			Duration: *httpDur,
			Seed:     *seed,
			Clock:    obs.WallClock{},
		})
		if err != nil {
			return err
		}
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", raw)
		return err
	}

	cfg := sweepConfig{
		ticks: *ticks, seed: *seed, queue: *queue, batch: *batch, linger: *linger,
		programTicks: *programTicks, requestTicks: *requestTicks + *extraLatency,
		shardRate: *shardRate, shardRequestTicks: *shardRequestTicks + *extraLatency,
	}
	var err error
	if cfg.rates, err = parseFloats(*rates); err != nil {
		return fmt.Errorf("-rates: %w", err)
	}
	if cfg.pools, err = parseInts(*pools); err != nil {
		return fmt.Errorf("-pools: %w", err)
	}
	if *shardPools != "" {
		if cfg.shardPools, err = parseInts(*shardPools); err != nil {
			return fmt.Errorf("-shard-pools: %w", err)
		}
	}

	rep, err := sweep(cfg)
	if err != nil {
		return err
	}
	printReport(out, rep)
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			return err
		}
	}
	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			return err
		}
		return load.Gate(out, rep, base, *slack)
	}
	return nil
}

// sweep measures every (pool, rate) point of the grid.
func sweep(cfg sweepConfig) (load.Report, error) {
	rep := load.Report{
		Schema:       load.ReportSchema,
		Seed:         cfg.seed,
		QueueDepth:   cfg.queue,
		MaxBatch:     cfg.batch,
		MaxLinger:    cfg.linger,
		ProgramTicks: cfg.programTicks,
		RequestTicks: cfg.requestTicks,
	}
	for _, pool := range cfg.pools {
		for _, rate := range cfg.rates {
			res, err := load.RunPoint(
				load.Config{Rate: rate, Ticks: cfg.ticks, Seed: cfg.seed},
				fleet.Options{
					MaxBatch:   cfg.batch,
					MaxLinger:  cfg.linger,
					QueueDepth: cfg.queue,
					ServiceModel: fleet.ServiceModel{
						ProgramTicks: cfg.programTicks,
						RequestTicks: cfg.requestTicks,
					},
				},
				load.NullUnits(pool)...)
			if err != nil {
				return load.Report{}, fmt.Errorf("pool %d rate %g: %w", pool, rate, err)
			}
			rep.Points = append(rep.Points, load.BuildPoint(pool, rate, res))
		}
	}
	// Sharded scale-out points: one low-rate workload per pool size,
	// fanned out at the kernel-group boundary. Pool 1 cannot fan out
	// and serves whole - it is the in-report baseline the multi-chip
	// points are read against.
	if len(cfg.shardPools) > 0 {
		rep.ShardRequestTicks = cfg.shardRequestTicks
	}
	for _, pool := range cfg.shardPools {
		res, err := load.RunPoint(
			load.Config{Rate: cfg.shardRate, Ticks: cfg.ticks, Seed: cfg.seed, Shard: true, KernelM: 36},
			fleet.Options{
				MaxBatch:   cfg.batch,
				MaxLinger:  cfg.linger,
				QueueDepth: cfg.queue,
				ServiceModel: fleet.ServiceModel{
					ProgramTicks: cfg.programTicks,
					RequestTicks: cfg.shardRequestTicks,
				},
			},
			load.NullUnits(pool)...)
		if err != nil {
			return load.Report{}, fmt.Errorf("shard pool %d rate %g: %w", pool, cfg.shardRate, err)
		}
		pt := load.BuildPoint(pool, cfg.shardRate, res)
		pt.Shard = true
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// printReport renders the throughput-latency table. Sharded
// scale-out points carry a "shard" mode marker: their E2E is
// single-inference latency across the pool, not batched throughput.
func printReport(out io.Writer, rep load.Report) {
	fmt.Fprintf(out, "%-6s %-6s %-8s %-9s %-6s %7s %7s %7s %7s %7s\n",
		"pool", "mode", "offered", "achieved", "shed%", "p50", "p90", "p99", "p999", "max")
	for _, p := range rep.Points {
		mode := "whole"
		if p.Shard {
			mode = "shard"
		}
		fmt.Fprintf(out, "%-6d %-6s %-8g %-9.3f %-6.1f %7.0f %7.0f %7.0f %7.0f %7.0f\n",
			p.Pool, mode, p.OfferedRate, p.AchievedRate, 100*p.ShedFraction,
			p.E2E.P50, p.E2E.P90, p.E2E.P99, p.E2E.P999, p.E2E.Max)
	}
}

// selftestConfig is the pinned tiny sweep the CI smoke step runs.
var selftestConfig = sweepConfig{
	rates: []float64{0.5, 1.2}, pools: []int{1, 2},
	ticks: 200, seed: 12345, queue: 32, batch: 4, linger: 2,
	programTicks: 2, requestTicks: 1,
	shardPools: []int{1, 4}, shardRate: 0.02, shardRequestTicks: 18,
}

// runSelftest runs the pinned sweep twice and requires byte-identical
// artifacts - the determinism the baseline gate stands on - then
// prints the artifact's hash so drift across commits is visible in CI
// logs.
func runSelftest(out io.Writer) error {
	var artifacts [2][]byte
	for i := range artifacts {
		rep, err := sweep(selftestConfig)
		if err != nil {
			return fmt.Errorf("selftest sweep %d: %w", i+1, err)
		}
		raw, err := marshalReport(rep)
		if err != nil {
			return err
		}
		artifacts[i] = raw
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		return fmt.Errorf("selftest: two identically seeded sweeps produced different artifacts")
	}
	fmt.Fprintf(out, "selftest ok: 2 runs byte-identical, sha256 %x\n", sha256.Sum256(artifacts[0]))
	return nil
}

// parseFloats parses a comma-separated list of positive floats.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("%g is not positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("%d is not positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// marshalReport renders the artifact with a trailing newline, so it
// diffs cleanly when committed as the baseline.
func marshalReport(rep load.Report) ([]byte, error) {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// writeJSON writes the artifact file.
func writeJSON(path string, rep load.Report) error {
	raw, err := marshalReport(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// readReport loads a committed report.
func readReport(path string) (load.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return load.Report{}, err
	}
	var rep load.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return load.Report{}, fmt.Errorf("baseline %s: %w", path, err)
	}
	return rep, nil
}
