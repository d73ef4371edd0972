package fleet_test

import (
	"context"
	"math"
	"testing"

	"albireo/internal/fleet"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/nn"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// TestFleetGEMMMatchesLocalChip: a GEMM served through the fleet must
// produce exactly the bits a lone chip with the same seed produces.
func TestFleetGEMMMatchesLocalChip(t *testing.T) {
	t.Parallel()
	s, err := fleet.New(fleet.Options{MaxBatch: 4, QueueDepth: 8}, analogUnit(61))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	a := tensor.RandomMatrix(6, 14, 62)
	b := tensor.RandomMatrix(14, 5, 63)
	got, err := s.GEMMAsync(ctx, a, b, true).Matrix()
	if err != nil {
		t.Fatalf("GEMM: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The scheduler's startup BIST scan advances the chip's noise
	// stream before any request; the lone comparison chip needs the
	// identical scan to stay bit-aligned.
	lone := analogUnit(61)
	fleet.StartupScan([]fleet.Unit{lone})
	want := lone.Backend.GEMM(a, b, true)
	if got.R != want.R || got.C != want.C {
		t.Fatalf("shape %dx%d, want %dx%d", got.R, got.C, want.R, want.C)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("fleet GEMM output[%d] = %v, local chip = %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestFleetGEMMCoalesces: behind a busy worker, two GEMMs against the
// same B matrix share a batch (the weight program is the amortizable
// state); a GEMM against different B does not.
func TestFleetGEMMCoalesces(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	s, gate := startGated(t, fleet.Options{MaxBatch: 2, MaxLinger: 5, QueueDepth: 16}, reg)
	ctx := context.Background()
	a := tensor.RandomMatrix(4, 10, 65)
	wa := tensor.RandomMatrix(10, 6, 66)
	wb := tensor.RandomMatrix(10, 6, 67)

	busy := s.GEMMAsync(ctx, a, wa, false)
	<-gate.entered
	base := reg.Snapshot()
	f1 := s.GEMMAsync(ctx, a, wa, false)
	f2 := s.GEMMAsync(ctx, a, wa, false)
	f3 := s.GEMMAsync(ctx, a, wb, false)
	if got := reg.Snapshot().Delta(base).SumCounters(fleet.MetricBatches); got != 1 {
		t.Fatalf("batches after same-B pair = %d, want 1", got)
	}
	for i := 0; i < 5; i++ {
		s.Tick()
	}
	close(gate.open)
	for i, f := range []*fleet.Future{busy, f1, f2, f3} {
		if _, err := f.Matrix(); err != nil {
			t.Fatalf("gemm %d: %v", i, err)
		}
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	h := reg.Snapshot().Delta(base).Histograms[fleet.MetricBatchSize]
	if h.Count != 2 || math.Float64bits(h.Sum) != math.Float64bits(3) {
		t.Fatalf("batch-size histogram count=%d sum=%g, want count=2 sum=3", h.Count, h.Sum)
	}
}

// TestFleetGEMMOpTagValidation: only GEMM-family tags are admitted.
func TestFleetGEMMOpTagValidation(t *testing.T) {
	t.Parallel()
	s, err := fleet.New(fleet.Options{QueueDepth: 4}, analogUnit(68))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	a := tensor.RandomMatrix(2, 3, 69)
	b := tensor.RandomMatrix(3, 2, 70)
	if _, err := s.GEMMAsyncOp(ctx, journal.OpConv, a, b, false).Matrix(); err == nil {
		t.Fatal("GEMMAsyncOp accepted a volume op tag")
	}
	if _, err := s.GEMMAsyncOp(ctx, journal.OpLSTM, a, b, false).Matrix(); err != nil {
		t.Fatalf("GEMMAsyncOp(OpLSTM): %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestJournalReplayGEMMWorkloads: serve an MLP head and an attention
// block through a journaled fleet, then rebuild the pool from the
// header and verify every delivered GEMM hash bit-for-bit - the
// bit-exact replay contract extended to the GEMM family.
func TestJournalReplayGEMMWorkloads(t *testing.T) {
	t.Parallel()
	spec := fleet.PoolSpec{Pool: 2, Seed: 71, Budget: 100}
	hdr := journal.Header{Pool: 2, Seed: 71, Size: 8, Budget: spec.Budget}
	dir, a, _ := startJournal(t, hdr)

	units, _, err := fleet.BuildUnits(spec, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatalf("BuildUnits: %v", err)
	}
	s, err := fleet.New(fleet.Options{MaxBatch: 4, QueueDepth: 32, Journal: a}, units...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	be := s.Bind(ctx)

	m := nn.NewMLP("head", []int{12, 16, 4}, 72)
	x := tensor.RandomMatrix(3, 12, 73)
	m.Forward(be, x)
	q := tensor.RandomMatrix(4, 8, 74)
	k := tensor.RandomMatrix(4, 8, 75)
	v := tensor.RandomMatrix(4, 8, 76)
	nn.Attention(be, q, k, v)
	if err := be.Err(); err != nil {
		t.Fatalf("bound backend degraded: %v", err)
	}

	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	a.Drain()

	snap, err := journal.Read(dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	rebuilt, _, err := fleet.BuildUnits(spec, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatalf("BuildUnits (replay): %v", err)
	}
	fleet.StartupScan(rebuilt)
	res, err := journal.Replay(snap, &fleet.JournalExecutor{Units: rebuilt})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Verified == 0 || res.Verified != res.Delivers || res.Admits != res.Delivers {
		t.Fatalf("replay result = %+v, want every GEMM delivered and verified", res)
	}
}

// TestBoundBackendGEMMFallback: after Close, a bound backend's GEMM
// falls back to the exact reference and records the error.
func TestBoundBackendGEMMFallback(t *testing.T) {
	t.Parallel()
	s, err := fleet.New(fleet.Options{QueueDepth: 4}, analogUnit(77))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	be := s.Bind(ctx)
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	a := tensor.RandomMatrix(3, 5, 78)
	b := tensor.RandomMatrix(5, 2, 79)
	got := be.GEMM(a, b, false)
	want := inference.Exact{}.GEMM(a, b, false)
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("fallback GEMM output[%d] = %v, exact = %v", i, got.Data[i], want.Data[i])
		}
	}
	if be.Err() == nil {
		t.Fatal("bound backend did not record the submission failure")
	}
}
