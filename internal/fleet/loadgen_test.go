package fleet_test

import (
	"context"
	"errors"
	"testing"

	"albireo/internal/fleet"
	"albireo/internal/inference"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// TestSweepRecordsTelemetry checks the load generator: one sweep
// through an instrumented backend records that backend's counters and
// trace events.
func TestSweepRecordsTelemetry(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	trace := obs.NewTrace()
	be := inference.Observe(inference.Exact{}, reg, trace)
	if err := fleet.Sweep(context.Background(), be, 1, 8, 3); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 {
		t.Fatal("sweep recorded no counters")
	}
	if trace.Len() == 0 {
		t.Fatal("sweep recorded no trace events")
	}
}

// TestSweepHonorsCancellation checks that a canceled context stops the
// sweep between iterations with the context error.
func TestSweepHonorsCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := fleet.Sweep(ctx, inference.Exact{}, 4, 8, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep on canceled ctx: err = %v, want context.Canceled", err)
	}
	if err := fleet.Sweeps(ctx, inference.Exact{}, 3, 1, 8, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweeps on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// cancelAfterBackend wraps a backend and fires cancel on the Nth
// layer call, so tests can pull the plug mid-sweep rather than before
// it. Sweeps drive the backend from one goroutine, so plain counters
// suffice.
type cancelAfterBackend struct {
	inner  inference.Backend
	after  int // fire cancel on this call number (0: never)
	calls  int
	cancel context.CancelFunc
}

func (b *cancelAfterBackend) hit() {
	b.calls++
	if b.after > 0 && b.calls == b.after {
		b.cancel()
	}
}

func (b *cancelAfterBackend) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	b.hit()
	return b.inner.Conv(a, w, cfg, relu)
}

func (b *cancelAfterBackend) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	b.hit()
	return b.inner.FullyConnected(a, w, relu)
}

func (b *cancelAfterBackend) GEMM(x, w *tensor.Matrix, relu bool) *tensor.Matrix {
	b.hit()
	return b.inner.GEMM(x, w, relu)
}

func (b *cancelAfterBackend) Name() string { return b.inner.Name() }

// sweepCalls counts the layer calls of one uncanceled sweep of batch
// inputs.
func sweepCalls(t *testing.T, batch int) int {
	t.Helper()
	probe := &cancelAfterBackend{inner: inference.Exact{}}
	if err := fleet.Sweep(context.Background(), probe, batch, 8, 3); err != nil {
		t.Fatalf("probe Sweep: %v", err)
	}
	if probe.calls == 0 {
		t.Fatal("probe sweep drove no layer calls")
	}
	return probe.calls
}

// TestSweepCanceledMidBatch cancels from inside a layer call during
// the first batch iteration: the sweep must stop at the next
// between-iteration check with the context error, after the iteration
// in progress finishes (a sweep never leaves a layer half-recorded).
func TestSweepCanceledMidBatch(t *testing.T) {
	t.Parallel()
	perIteration := sweepCalls(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	be := &cancelAfterBackend{inner: inference.Exact{}, after: 1, cancel: cancel}
	err := fleet.Sweep(ctx, be, 4, 8, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep canceled mid-batch: err = %v, want context.Canceled", err)
	}
	if be.calls != perIteration {
		t.Fatalf("calls = %d, want one iteration's %d", be.calls, perIteration)
	}
}

// TestSweepsCanceledMidSequence cancels during the second sweep of a
// three-sweep sequence: Sweeps must return the context error after one
// completed sweep and at most one batch iteration of the second.
func TestSweepsCanceledMidSequence(t *testing.T) {
	t.Parallel()
	perSweep := sweepCalls(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	be := &cancelAfterBackend{inner: inference.Exact{}, after: perSweep + 1, cancel: cancel}
	err := fleet.Sweeps(ctx, be, 3, 1, 8, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweeps canceled mid-sequence: err = %v, want context.Canceled", err)
	}
	// Cancel lands inside sweep 2's first iteration; that iteration
	// finishes (layers are never cut mid-run) and then the sweep stops,
	// so at most one batch iteration of sweep 2 ran.
	if be.calls <= perSweep || be.calls > 2*perSweep {
		t.Fatalf("calls = %d, want in (%d, %d]: cancel must land inside sweep 2",
			be.calls, perSweep, 2*perSweep)
	}
}
