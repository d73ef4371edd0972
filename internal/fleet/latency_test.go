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

// exactUnit builds a chipless pool member on the digital reference
// backend: fast, deterministic, never probed.
func exactUnit() fleet.Unit { return fleet.Unit{Backend: inference.Exact{}} }

// smallConv returns a tiny conv input/weight pair for latency tests,
// seeded so coalescing behavior is scripted, not incidental.
func smallConv(seed int64) (*tensor.Volume, *tensor.Kernels, tensor.ConvConfig) {
	in := tensor.RandomVolume(1, 4, 4, seed)
	w := tensor.RandomKernels(1, 1, 3, 3, 9)
	return in, w, tensor.ConvConfig{Stride: 1, Pad: 1}
}

// driveVirtual runs a scripted open-loop trace against a virtual-time
// scheduler: perTick[i] requests are submitted before tick i, then the
// scheduler ticks until every admitted slot releases. It returns the
// issued futures (admission failures included) and the drained
// scheduler still open for inspection.
func driveVirtual(t *testing.T, s *fleet.Scheduler, perTick []int) []*fleet.Future {
	t.Helper()
	var futures []*fleet.Future
	ctx := context.Background()
	in, w, cfg := smallConv(3)
	for _, n := range perTick {
		for i := 0; i < n; i++ {
			futures = append(futures, s.ConvAsync(ctx, in, w, cfg, true))
		}
		s.Tick()
	}
	for i := 0; s.InFlight() > 0; i++ {
		if i > 10000 {
			t.Fatalf("drain did not converge: %d still in flight", s.InFlight())
		}
		s.Tick()
	}
	return futures
}

// TestLatencyStagesReconcile is the decomposition invariant: in
// virtual-time mode every request's end-to-end latency equals
// linger + queue wait + execute + delivery exactly - per request via
// Stages, and histogram-sum by histogram-sum with zero tolerance.
func TestLatencyStagesReconcile(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	s, err := fleet.New(fleet.Options{
		MaxBatch:    4,
		MaxLinger:   2,
		QueueDepth:  32,
		VirtualTime: true,
	}, exactUnit(), exactUnit())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Instrument(reg, nil)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// A burst past the batching point, a quiet stretch, a second burst:
	// exercises coalesced batches, lingered partials, and queue wait.
	futures := driveVirtual(t, s, []int{5, 3, 0, 0, 7, 1, 0, 0, 0, 0})

	finalized := 0
	for i, f := range futures {
		if _, err := f.Volume(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		st, ok := f.Stages()
		if !ok {
			t.Fatalf("future %d: stages not final after drain", i)
		}
		sum := st.Linger() + st.QueueWait() + st.Execute() + st.Delivery()
		if st.EndToEnd() != sum {
			t.Fatalf("future %d: e2e %d != stage sum %d (%+v)", i, st.EndToEnd(), sum, st)
		}
		if st.Linger() < 0 || st.QueueWait() < 0 || st.Execute() <= 0 || st.Delivery() < 0 {
			t.Fatalf("future %d: negative or empty stage in %+v", i, st)
		}
		finalized++
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap := reg.Snapshot()
	e2e := snap.Histograms[fleet.MetricLatencyE2E]
	parts := []obs.HistogramSnapshot{
		snap.Histograms[fleet.MetricLatencyLinger],
		snap.Histograms[fleet.MetricLatencyQueueWait],
		snap.Histograms[fleet.MetricLatencyExecute],
		snap.Histograms[fleet.MetricLatencyDelivery],
	}
	if e2e.Count != int64(finalized) {
		t.Fatalf("e2e count = %d, want %d", e2e.Count, finalized)
	}
	var partSum float64
	for i, p := range parts {
		if p.Count != e2e.Count {
			t.Fatalf("stage %d count = %d, want %d", i, p.Count, e2e.Count)
		}
		partSum += p.Sum
	}
	// Integer tick values are exact in float64, so the reconciliation
	// tolerance is zero.
	if e2e.Sum != partSum {
		t.Fatalf("e2e sum %g != stage sums %g", e2e.Sum, partSum)
	}
	if e2e.Sum <= 0 {
		t.Fatal("latency histograms recorded nothing")
	}
}

// TestVirtualTimeWorkConserving checks the dispatch rule on the
// virtual clock: a request that arrives at an idle worker dispatches
// on arrival (zero linger), and one that arrives while the worker's
// booked service runs lingers until that service ends - before its
// MaxLinger - and then starts at once.
func TestVirtualTimeWorkConserving(t *testing.T) {
	t.Parallel()
	s, err := fleet.New(fleet.Options{
		MaxBatch:    4,
		MaxLinger:   5,
		QueueDepth:  8,
		VirtualTime: true,
	}, exactUnit())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Instrument(obs.NewRegistry(), nil)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	in, w, cfg := smallConv(13)
	first := s.ConvAsync(ctx, in, w, cfg, true)
	second := s.ConvAsync(ctx, in, w, cfg, true)
	for i := 0; s.InFlight() > 0; i++ {
		if i > 100 {
			t.Fatalf("drain did not converge: %d in flight", s.InFlight())
		}
		s.Tick()
	}
	a, ok := first.Stages()
	if !ok {
		t.Fatal("first request's stages not final")
	}
	b, ok := second.Stages()
	if !ok {
		t.Fatal("second request's stages not final")
	}
	// The default service model prices a one-request batch at 2 + 1
	// ticks, so the worker is booked for ticks [0, 3).
	if a.Linger() != 0 || a.QueueWait() != 0 || a.ExecEnd != 3 {
		t.Fatalf("request at an idle worker: %+v, want zero linger and service [0, 3)", a)
	}
	if b.Linger() != 3 || b.QueueWait() != 0 || b.ExecStart != 3 {
		t.Fatalf("request behind a busy worker: %+v, want linger 3 and start at tick 3", b)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestVirtualTimeDeterministic re-runs the same scripted trace and
// requires bit-identical registry snapshots - the property the
// load-harness baseline gate stands on.
func TestVirtualTimeDeterministic(t *testing.T) {
	t.Parallel()
	run := func() obs.Snapshot {
		reg := obs.NewRegistry()
		s, err := fleet.New(fleet.Options{
			MaxBatch:    4,
			MaxLinger:   1,
			QueueDepth:  8,
			VirtualTime: true,
		}, exactUnit(), exactUnit())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.Instrument(reg, nil)
		if err := s.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		futures := driveVirtual(t, s, []int{6, 6, 6, 0, 2, 0, 0})
		for _, f := range futures {
			_, _ = f.Volume() // sheds expected past QueueDepth
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return reg.Snapshot()
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Fatalf("virtual-time snapshots differ:\n%v\nvs\n%v", a, b)
	}
	if a.Counters[fleet.MetricShed] == 0 {
		t.Fatal("trace was meant to push past the shedding point")
	}
}

// TestShedCountersReconcile floods a tiny admission queue and checks
// the counter algebra: issued = admitted + shed, and every admitted
// request is accounted for as completed or canceled, leaving depth 0.
func TestShedCountersReconcile(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	s, err := fleet.New(fleet.Options{
		MaxBatch:    2,
		MaxLinger:   0,
		QueueDepth:  4,
		VirtualTime: true,
	}, exactUnit())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Instrument(reg, nil)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	in, w, cfg := smallConv(5)
	const issued = 10
	var futures []*fleet.Future
	sheds := 0
	for i := 0; i < issued; i++ {
		futures = append(futures, s.ConvAsync(ctx, in, w, cfg, false))
	}
	for _, f := range futures {
		if _, err := f.Volume(); errors.Is(err, fleet.ErrOverloaded) {
			sheds++
		}
	}
	for i := 0; s.InFlight() > 0; i++ {
		if i > 1000 {
			t.Fatalf("drain did not converge: %d in flight", s.InFlight())
		}
		s.Tick()
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := reg.Snapshot()
	admitted := snap.Counters[fleet.MetricAdmitted]
	shed := snap.Counters[fleet.MetricShed]
	completed := snap.SumCounters(fleet.MetricCompleted)
	canceled := snap.Counters[fleet.MetricCanceled]
	if admitted+shed != issued {
		t.Fatalf("admitted %d + shed %d != issued %d", admitted, shed, issued)
	}
	if int64(sheds) != shed {
		t.Fatalf("ErrOverloaded futures %d != shed counter %d", sheds, shed)
	}
	if shed == 0 {
		t.Fatal("flood was meant to shed")
	}
	if completed+canceled != admitted {
		t.Fatalf("completed %d + canceled %d != admitted %d", completed, canceled, admitted)
	}
	if depth := snap.Gauges[fleet.MetricQueueDepth]; depth != 0 {
		t.Fatalf("queue depth after drain = %g, want 0", depth)
	}
}

// TestStagesWallMode checks the decomposition in wall-time mode: the
// stamps finalize at delivery and still sum exactly, with execution
// collapsed onto the delivering tick.
func TestStagesWallMode(t *testing.T) {
	t.Parallel()
	s, err := fleet.New(fleet.Options{MaxLinger: 0, QueueDepth: 8}, exactUnit())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	in, w, cfg := smallConv(7)
	f := s.ConvAsync(ctx, in, w, cfg, true)
	if _, err := f.Volume(); err != nil {
		t.Fatalf("Volume: %v", err)
	}
	st, ok := f.Stages()
	if !ok {
		t.Fatal("stages not final after delivery")
	}
	sum := st.Linger() + st.QueueWait() + st.Execute() + st.Delivery()
	if st.EndToEnd() != sum {
		t.Fatalf("e2e %d != stage sum %d (%+v)", st.EndToEnd(), sum, st)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestStagesNotFinalOnAdmissionFailure checks that shed and
// pre-canceled submissions never report stage stamps.
func TestStagesNotFinalOnAdmissionFailure(t *testing.T) {
	t.Parallel()
	s, err := fleet.New(fleet.Options{QueueDepth: 8}, exactUnit())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	in, w, cfg := smallConv(11)
	f := s.ConvAsync(canceled, in, w, cfg, false)
	if _, ok := f.Stages(); ok {
		t.Fatal("stages must not finalize for a pre-canceled submission")
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
