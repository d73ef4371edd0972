package fleet_test

import (
	"context"
	"fmt"
	"testing"

	"albireo/internal/core"
	"albireo/internal/fleet"
	"albireo/internal/journal"
	"albireo/internal/load"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// cloneUnits builds a clone pool: every worker's chip shares the same
// seed and the same prep, which is the regime where the sharded union
// is bit-identical to a single chip (each chip's PLCGs see exactly
// the kernel sequence - and noise draws - of the reference chip's
// corresponding groups).
func cloneUnits(n int, seed int64, prep func(*core.Chip)) []fleet.Unit {
	units := make([]fleet.Unit, n)
	for i := range units {
		units[i] = analogUnit(seed)
		if prep != nil {
			prep(units[i].Chip)
		}
	}
	return units
}

// shardOpt is the sharded-serving configuration: no lingering, shard
// fan-out on.
func shardOpt() fleet.Options {
	return fleet.Options{MaxBatch: 8, QueueDepth: 32, Shard: true}
}

// runShardTrace drives a fixed four-op trace - a 13-kernel 3x3 conv,
// an 11-kernel pointwise conv, a 10-neuron classifier, and an
// 11x13x10 GEMM, each waited on before the next - and returns the
// outputs plus the registry snapshot.
func runShardTrace(t *testing.T, units []fleet.Unit, opt fleet.Options) ([][]float64, obs.Snapshot) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := fleet.New(opt, units...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Instrument(reg, obs.NewTrace())
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	in := tensor.RandomVolume(6, 10, 10, 931)
	w1 := tensor.RandomKernels(13, 6, 3, 3, 932) // 13 kernels: uneven residues mod 9
	w2 := tensor.RandomKernels(11, 13, 1, 1, 933)
	wfc := tensor.RandomKernels(10, 11, 10, 10, 934)
	ma := tensor.RandomMatrix(11, 13, 935)
	mb := tensor.RandomMatrix(13, 10, 936)

	v1, err := s.ConvAsync(ctx, in, w1, tensor.ConvConfig{Stride: 1, Pad: 1}, true).Volume()
	if err != nil {
		t.Fatalf("conv: %v", err)
	}
	u1, err := s.ConvAsync(ctx, v1, w2, tensor.ConvConfig{}, true).Volume()
	if err != nil {
		t.Fatalf("pointwise: %v", err)
	}
	l1, err := s.FullyConnectedAsync(ctx, u1, wfc, false).Logits()
	if err != nil {
		t.Fatalf("fc: %v", err)
	}
	m1, err := s.GEMMAsync(ctx, ma, mb, false).Matrix()
	if err != nil {
		t.Fatalf("gemm: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return [][]float64{v1.Data, u1.Data, l1, m1.Data}, reg.Snapshot()
}

// TestFleetShardedMatchesSinglePool is the tentpole invariant at the
// fleet layer: a sharded clone pool serves every shardable op kind
// with outputs bit-identical to a single chip, across healthy,
// faulted (quarantined-and-kept), and pre-quarantined pools.
func TestFleetShardedMatchesSinglePool(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name         string
		prep         func(*testing.T, *core.Chip)
		keepDegraded bool
	}{
		{name: "healthy"},
		{
			// Faults the startup BIST localizes; KeepDegraded keeps every
			// clone serving with the faulty units quarantined.
			name: "faulty",
			prep: func(t *testing.T, c *core.Chip) {
				t.Helper()
				for _, f := range []struct {
					g, u int
					f    core.Fault
				}{
					{0, 0, core.Fault{Kind: core.StuckMZM, Tap: 1, Value: 0.6}},
					{3, 2, core.Fault{Kind: core.DetunedRing, Tap: 5, Column: 2, Value: 0.9, Drift: 1e-4}},
					{7, 1, core.Fault{Kind: core.DeadRing, Tap: 2, Column: 0}},
				} {
					if err := c.InjectFault(f.g, f.u, f.f); err != nil {
						t.Fatalf("InjectFault(%d,%d): %v", f.g, f.u, err)
					}
				}
			},
			keepDegraded: true,
		},
		{
			// Group 4 loses all its units: the active-group count (and so
			// the shard modulus) drops to 8 on every clone.
			name: "quarantined",
			prep: func(t *testing.T, c *core.Chip) {
				t.Helper()
				for _, q := range [][2]int{{4, 0}, {4, 1}, {4, 2}, {1, 2}} {
					if err := c.Quarantine(q[0], q[1]); err != nil {
						t.Fatalf("Quarantine(%d,%d): %v", q[0], q[1], err)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var prep func(*core.Chip)
			if tc.prep != nil {
				prep = func(c *core.Chip) { tc.prep(t, c) }
			}
			opt := shardOpt()
			opt.KeepDegraded = tc.keepDegraded
			sharded, snap := runShardTrace(t, cloneUnits(4, 61, prep), opt)
			single, ssnap := runShardTrace(t, cloneUnits(1, 61, prep), opt)
			requireBitsEqual(t, sharded, single)
			if got := snap.Counters[fleet.MetricShardFanouts]; got != 4 {
				t.Fatalf("shard fanouts = %d, want 4 (one per op)", got)
			}
			if got := snap.Counters[fleet.MetricShardSubs]; got != 16 {
				t.Fatalf("shard subs = %d, want 16 (4 ops x 4 workers)", got)
			}
			if got := ssnap.Counters[fleet.MetricShardFanouts]; got != 0 {
				t.Fatalf("pool-1 fanned out %d requests, want whole-request path", got)
			}
		})
	}
}

// TestFleetShardedDrainedMatchesSmallerPool is the degradation half:
// a sharded pool whose faulty worker is drained by the startup scan
// falls back - deterministically and bit-identically - to the sharded
// placement of the surviving clones, which in turn still matches the
// single-chip reference.
func TestFleetShardedDrainedMatchesSmallerPool(t *testing.T) {
	t.Parallel()
	units := cloneUnits(4, 62, nil)
	detune(t, units[2], 2, 1)
	drained, snap := runShardTrace(t, units, shardOpt())
	smaller, _ := runShardTrace(t, cloneUnits(3, 62, nil), shardOpt())
	single, _ := runShardTrace(t, cloneUnits(1, 62, nil), shardOpt())
	requireBitsEqual(t, drained, smaller)
	requireBitsEqual(t, drained, single)
	if got := snap.Counters[fleet.MetricDrains]; got != 1 {
		t.Fatalf("drains = %d, want 1", got)
	}
	if got := snap.Counters[fleet.MetricShardFanouts]; got != 4 {
		t.Fatalf("shard fanouts = %d, want 4", got)
	}
}

// TestFleetShardedDegradedPlacement checks quarantine-aware
// placement: a degraded-but-serving worker receives fewer kernel
// groups in proportion to its surviving PLCUs - never zero - and the
// journal's shard records pin the exact windows.
func TestFleetShardedDegradedPlacement(t *testing.T) {
	t.Parallel()
	dir, a, _ := startJournal(t, journal.Header{Pool: 3, Seed: 63})
	units := cloneUnits(3, 63, nil)
	// Degrade worker 1 to weight 9 (two of three units quarantined in
	// every group) without losing any group: placement over weights
	// {27, 9, 27} across 9 positions apportions {4, 1, 4}.
	for g := 0; g < 9; g++ {
		for u := 0; u < 2; u++ {
			if err := units[1].Chip.Quarantine(g, u); err != nil {
				t.Fatalf("Quarantine(%d,%d): %v", g, u, err)
			}
		}
	}
	opt := shardOpt()
	opt.Journal = a
	s, err := fleet.New(opt, units...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Instrument(obs.NewRegistry(), nil)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	in := tensor.RandomVolume(6, 10, 10, 941)
	w := tensor.RandomKernels(13, 6, 3, 3, 942)
	if _, err := s.ConvAsync(ctx, in, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true).Volume(); err != nil {
		t.Fatalf("conv: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	a.Drain()
	if err := a.Close(); err != nil {
		t.Fatalf("journal Close: %v", err)
	}

	snap, err := journal.Read(dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	counts := map[int64]int64{}
	for _, rec := range snap.Records {
		if rec.Kind != journal.KindShard {
			continue
		}
		sr, err := journal.Decode[journal.ShardRec](rec.Payload)
		if err != nil {
			t.Fatalf("shard payload: %v", err)
		}
		if sr.Of != 9 {
			t.Fatalf("shard modulus = %d, want 9", sr.Of)
		}
		counts[sr.Worker] = sr.Count
	}
	want := map[int64]int64{0: 4, 1: 1, 2: 4}
	if len(counts) != len(want) {
		t.Fatalf("shard records for %d workers, want %d (%v)", len(counts), len(want), counts)
	}
	for wk, n := range want {
		if counts[wk] != n {
			t.Fatalf("worker %d owns %d kernel groups, want %d (%v)", wk, counts[wk], n, counts)
		}
	}
}

// TestFleetShardedVirtualTimeLatency pins the latency win in the
// deterministic clock: with the same service model, a pool-4 sharded
// single inference completes in fewer virtual ticks than pool-1
// (program once, steady-state divided by the owned fraction), and the
// whole decomposition is reproducible tick for tick.
func TestFleetShardedVirtualTimeLatency(t *testing.T) {
	t.Parallel()
	run := func(pool int) fleet.StageTicks {
		units := cloneUnits(pool, 64, nil)
		s, err := fleet.New(fleet.Options{
			MaxBatch: 8, QueueDepth: 16, Shard: true,
			VirtualTime:  true,
			ServiceModel: fleet.ServiceModel{ProgramTicks: 2, RequestTicks: 18},
		}, units...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.Instrument(obs.NewRegistry(), nil)
		if err := s.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		ctx := context.Background()
		in := tensor.RandomVolume(6, 10, 10, 951)
		w := tensor.RandomKernels(18, 6, 3, 3, 952)
		fut := s.ConvAsync(ctx, in, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
		if _, err := fut.Volume(); err != nil {
			t.Fatalf("conv: %v", err)
		}
		for s.InFlight() > 0 {
			s.Tick()
		}
		st, ok := fut.Stages()
		if !ok {
			t.Fatal("stages not final after drain")
		}
		if err := s.Close(ctx); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return st
	}

	st1 := run(1)
	// Pool 1: ProgramTicks + RequestTicks = 20.
	if got := st1.EndToEnd(); got != 20 {
		t.Fatalf("pool-1 e2e = %d ticks, want 20", got)
	}
	st4 := run(4)
	// Pool 4 windows over 9 groups are {3,2,2,2}: the slowest sub pays
	// 2 + ceil(18*3/9) = 8 ticks, and the merge barrier ends there.
	if got := st4.EndToEnd(); got != 8 {
		t.Fatalf("pool-4 e2e = %d ticks, want 8", got)
	}
	if st4.EndToEnd() >= st1.EndToEnd() {
		t.Fatalf("sharded e2e %d !< single-chip e2e %d", st4.EndToEnd(), st1.EndToEnd())
	}
	// Determinism: the same trace books the same ledger.
	if st4b := run(4); st4b != st4 {
		t.Fatalf("pool-4 stages changed across identical runs: %+v vs %+v", st4b, st4)
	}
}

// TestFleetShardedJournalReplay closes the loop on the shard journal
// protocol: a sharded run's journal replays bit-for-bit against a
// rebuilt pool (KindShard records re-execute each window at its
// recorded per-worker position; the Worker -1 deliver verifies the
// merged hash), and a perturbed rebuild is caught as a divergence at
// the merge. The trace covers every op kind - depthwise and grouped
// convs take the whole path even with Shard on - and the replay holds
// on a clone pool and on a pool mixing a chip with a chipless
// ShardBackend unit.
func TestFleetShardedJournalReplay(t *testing.T) {
	t.Parallel()
	record := func(units []fleet.Unit) *journal.Snapshot {
		t.Helper()
		dir, a, _ := startJournal(t, journal.Header{Pool: 2, Seed: 65})
		opt := shardOpt()
		opt.Journal = a
		s, err := fleet.New(opt, units...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.Instrument(obs.NewRegistry(), nil)
		if err := s.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		ctx := context.Background()
		in := tensor.RandomVolume(6, 10, 10, 961)
		w1 := tensor.RandomKernels(13, 6, 3, 3, 962)
		wfc := tensor.RandomKernels(10, 13, 10, 10, 963)
		ma := tensor.RandomMatrix(7, 11, 964)
		mb := tensor.RandomMatrix(11, 9, 965)
		v1, err := s.ConvAsync(ctx, in, w1, tensor.ConvConfig{Stride: 1, Pad: 1}, true).Volume()
		if err != nil {
			t.Fatalf("conv: %v", err)
		}
		if _, err := s.FullyConnectedAsync(ctx, v1, wfc, false).Logits(); err != nil {
			t.Fatalf("fc: %v", err)
		}
		if _, err := s.GEMMAsync(ctx, ma, mb, false).Matrix(); err != nil {
			t.Fatalf("gemm: %v", err)
		}
		wdw := tensor.RandomKernels(6, 1, 3, 3, 966)
		if _, err := s.ConvAsync(ctx, in, wdw, tensor.ConvConfig{Stride: 1, Pad: 1, Depthwise: true}, true).Volume(); err != nil {
			t.Fatalf("depthwise: %v", err)
		}
		wg := tensor.RandomKernels(4, 3, 3, 3, 967)
		if _, err := s.ConvAsync(ctx, in, wg, tensor.ConvConfig{Stride: 1, Pad: 1, Groups: 2}, false).Volume(); err != nil {
			t.Fatalf("grouped: %v", err)
		}
		for _, op := range []journal.Op{journal.OpLSTM, journal.OpAttention} {
			if _, err := s.GEMMAsyncOp(ctx, op, ma, mb, true).Matrix(); err != nil {
				t.Fatalf("%v: %v", op, err)
			}
		}
		if err := s.Close(ctx); err != nil {
			t.Fatalf("Close: %v", err)
		}
		a.Drain()
		if err := a.Close(); err != nil {
			t.Fatalf("journal Close: %v", err)
		}
		snap, err := journal.Read(dir)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		return snap
	}
	// replay checks every request verifies: 7 admits, the 5 shardable
	// ones fanned out over both workers.
	replay := func(snap *journal.Snapshot, rebuilt []fleet.Unit) {
		t.Helper()
		fleet.StartupScan(rebuilt)
		res, err := journal.Replay(snap, &fleet.JournalExecutor{Units: rebuilt})
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if res.Admits != 7 || res.Delivers != 7 || res.Verified != 7 {
			t.Fatalf("replay result = %+v, want 7 admits/delivers/verified", res)
		}
		if res.ShardSubs != 10 {
			t.Fatalf("replayed shard subs = %d, want 10 (5 ops x 2 workers)", res.ShardSubs)
		}
	}

	snap := record(cloneUnits(2, 65, nil))
	var merged int
	for _, rec := range snap.Records {
		if rec.Kind != journal.KindDeliver {
			continue
		}
		d, err := journal.Decode[journal.Deliver](rec.Payload)
		if err != nil {
			t.Fatalf("deliver payload: %v", err)
		}
		if d.Worker == -1 {
			merged++
		}
	}
	if merged != 5 {
		t.Fatalf("merged delivers = %d, want 5", merged)
	}
	replay(snap, cloneUnits(2, 65, nil))

	// Perturb worker 1 after the startup scan - inside its window:
	// worker 1 owns residues [5,9), so its kernels run on groups 5-8,
	// and a fault in group 6 must diverge the merged hash.
	perturbed := cloneUnits(2, 65, nil)
	fleet.StartupScan(perturbed)
	f := core.Fault{Kind: core.DetunedRing, Tap: 4, Column: 2, Value: 0.3}
	if err := perturbed[1].Chip.InjectFault(6, 1, f); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	_, err := journal.Replay(snap, &fleet.JournalExecutor{Units: perturbed})
	d, ok := journal.AsDivergence(err)
	if !ok {
		t.Fatalf("perturbed replay: err = %v, want *Divergence", err)
	}
	if d.Worker != -1 {
		t.Fatalf("divergence at worker %d, want -1 (the merged deliver)", d.Worker)
	}

	// A chipless ShardBackend unit executes its windows live, so replay
	// must execute them too.
	mixed := func() []fleet.Unit {
		return []fleet.Unit{analogUnit(65), {Backend: load.NullBackend{}}}
	}
	replay(record(mixed()), mixed())
}

// BenchmarkShardedConv measures a single 36-kernel convolution
// inference: pool-1 serves it whole; pool-4 shards it into
// kernel-group windows, so each chip simulates a quarter of the PLCG
// steps and the critical path drops accordingly. Wall ns/op shows the
// win on multi-core hosts (chips execute on separate goroutines); the
// virt-ticks/op metric is the deterministic service-model latency of
// the same inference (20 for pool-1, 8 for pool-4 under the default
// 18-tick steady state), machine-independent by construction.
func BenchmarkShardedConv(b *testing.B) {
	in := tensor.RandomVolume(6, 16, 16, 971)
	w := tensor.RandomKernels(36, 6, 3, 3, 972)
	cfg := tensor.ConvConfig{Stride: 1, Pad: 1}
	for _, pool := range []int{1, 4} {
		b.Run(fmt.Sprintf("pool-%d", pool), func(b *testing.B) {
			ticks := virtTicks(b, pool, in, w, cfg)
			s, err := fleet.New(shardOpt(), cloneUnits(pool, 66, nil)...)
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			s.Instrument(obs.NewRegistry(), nil)
			if err := s.Start(); err != nil {
				b.Fatalf("Start: %v", err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ConvAsync(ctx, in, w, cfg, true).Volume(); err != nil {
					b.Fatalf("conv: %v", err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ticks), "virt-ticks/op")
			if err := s.Close(ctx); err != nil {
				b.Fatalf("Close: %v", err)
			}
		})
	}
}

// virtTicks runs one inference under the virtual clock and returns
// its end-to-end latency in ticks.
func virtTicks(b *testing.B, pool int, in *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig) int64 {
	b.Helper()
	s, err := fleet.New(fleet.Options{
		MaxBatch: 8, QueueDepth: 16, Shard: true,
		VirtualTime:  true,
		ServiceModel: fleet.ServiceModel{ProgramTicks: 2, RequestTicks: 18},
	}, cloneUnits(pool, 66, nil)...)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	s.Instrument(obs.NewRegistry(), nil)
	if err := s.Start(); err != nil {
		b.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	fut := s.ConvAsync(ctx, in, w, cfg, true)
	if _, err := fut.Volume(); err != nil {
		b.Fatalf("conv: %v", err)
	}
	for s.InFlight() > 0 {
		s.Tick()
	}
	st, ok := fut.Stages()
	if !ok {
		b.Fatal("stages not final")
	}
	if err := s.Close(ctx); err != nil {
		b.Fatalf("Close: %v", err)
	}
	return st.EndToEnd()
}
