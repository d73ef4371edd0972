package fleet_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"albireo/internal/fleet"
	"albireo/internal/journal"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// startJournal creates a fresh journal under a temp dir and returns
// the running async front plus the raw writer (so tests can simulate
// crashes by abandoning it un-Closed).
func startJournal(t *testing.T, hdr journal.Header) (string, *journal.Async, *journal.Writer) {
	t.Helper()
	dir := t.TempDir()
	w, err := journal.Create(dir, hdr, journal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("journal.Create: %v", err)
	}
	a := journal.NewAsync(w, 0)
	a.Start()
	return dir, a, w
}

// TestJournalReplayBitExact is the end-to-end determinism check: serve
// a seeded sweep with journaling on, crash without closing the writer,
// read the journal back, rebuild a pool from nothing but the header,
// and verify every delivered output hash bit-for-bit. Then prove the
// detector is not vacuous: one extra detuned ring in the rebuilt pool
// must be caught with a first divergent sequence number.
func TestJournalReplayBitExact(t *testing.T) {
	t.Parallel()
	// Budget is generous so the guard never falls back to the digital
	// path: delivered bits are pure analog output, so any chip-state
	// difference between recorded and rebuilt pools must surface.
	spec := fleet.PoolSpec{Pool: 2, Seed: 7, Budget: 100, Detune: "0,0,4,2,0.4", KeepDegraded: true}
	hdr := journal.Header{
		Pool: int64(spec.Pool), Seed: spec.Seed, Size: 8,
		Budget: spec.Budget, KeepDegraded: spec.KeepDegraded, Detune: spec.Detune,
	}
	dir, a, _ := startJournal(t, hdr)

	units, _, err := fleet.BuildUnits(spec, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatalf("BuildUnits: %v", err)
	}
	s, err := fleet.New(fleet.Options{
		MaxBatch: 4, QueueDepth: 32,
		KeepDegraded: spec.KeepDegraded,
		Journal:      a,
	}, units...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	be := s.Bind(ctx)
	if err := fleet.Sweeps(ctx, be, 2, 2, int(hdr.Size), 7); err != nil {
		t.Fatalf("Sweeps: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	a.Drain()
	if a.Degraded() {
		t.Fatal("journal degraded during the sweep")
	}
	// Crash: the writer is abandoned without Close. Every appended
	// frame is complete, so recovery must find no torn tail.

	snap, err := journal.Read(dir)
	if err != nil {
		t.Fatalf("Read after crash: %v", err)
	}
	if snap.TornBytes != 0 {
		t.Fatalf("torn bytes = %d after frame-complete crash", snap.TornBytes)
	}
	if snap.Header != hdr {
		t.Fatalf("recovered header = %+v", snap.Header)
	}

	// Rebuild from the header alone and replay.
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
		t.Fatalf("replay result = %+v, want every admitted request delivered and verified", res)
	}

	// Divergence detection: one extra detuned ring on worker 0.
	diverged := spec
	diverged.Detune += ";0,1,3,1,0.3"
	units3, _, err := fleet.BuildUnits(diverged, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatalf("BuildUnits (diverged): %v", err)
	}
	fleet.StartupScan(units3)
	res, err = journal.Replay(snap, &fleet.JournalExecutor{Units: units3})
	d, ok := journal.AsDivergence(err)
	if !ok {
		t.Fatalf("replay on a perturbed pool: err = %v, want *Divergence", err)
	}
	if d.Worker != 0 {
		t.Fatalf("divergence on worker %d, want 0 (the perturbed chip)", d.Worker)
	}
	if d.Seq == 0 || d.Seq > snap.LastSeq {
		t.Fatalf("divergent seq %d outside journal range (1..%d)", d.Seq, snap.LastSeq)
	}
	if res.Verified >= res.Delivers {
		t.Fatalf("replay verified %d/%d delivers yet claimed divergence", res.Verified, res.Delivers)
	}
}

// TestJournalRecordsTransitions checks the quarantine lifecycle lands
// in the journal: a startup drain (probe=false, with the finding
// count) and a re-probe-driven return to service (probe=true).
func TestJournalRecordsTransitions(t *testing.T) {
	t.Parallel()
	dir, a, _ := startJournal(t, journal.Header{Pool: 2, Seed: 26})
	units := []fleet.Unit{analogUnit(26), analogUnit(27)}
	detune(t, units[1], 2, 1)
	s, err := fleet.New(fleet.Options{MaxBatch: 8, QueueDepth: 8, ReprobeEvery: 2, Journal: a}, units...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	units[1].Chip.Groups()[2].Units()[1].ClearFaults()
	eventually(t, 10*time.Second, func() bool {
		s.Tick()
		return s.Info()[1].InService
	}, "repaired worker never returned to service")
	if err := s.Close(context.Background()); err != nil {
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
	var drains, restores []journal.Transition
	for _, rec := range snap.Records {
		switch rec.Kind {
		case journal.KindDrain:
			tr, err := journal.DecodeTransition(rec.Payload)
			if err != nil {
				t.Fatalf("drain payload: %v", err)
			}
			drains = append(drains, tr)
		case journal.KindRestore:
			tr, err := journal.DecodeTransition(rec.Payload)
			if err != nil {
				t.Fatalf("restore payload: %v", err)
			}
			restores = append(restores, tr)
		}
	}
	if len(drains) == 0 {
		t.Fatal("startup drain not journaled")
	}
	first := drains[0]
	if first.Worker != 1 || first.Probe || first.Findings == 0 {
		t.Fatalf("startup drain = %+v, want worker 1, probe=false, findings>0", first)
	}
	if len(restores) != 1 {
		t.Fatalf("restores journaled = %d, want 1", len(restores))
	}
	if restores[0].Worker != 1 || !restores[0].Probe {
		t.Fatalf("restore = %+v, want worker 1 via re-probe", restores[0])
	}
}

// TestJournalShedAndSeqs checks admission-order seq assignment and
// that a shed is journaled with the queue depth that forced it - and
// assigned no admit seq.
func TestJournalShedAndSeqs(t *testing.T) {
	t.Parallel()
	dir, a, _ := startJournal(t, journal.Header{Pool: 1, Seed: 40})
	// The gated worker holds the first request and the second lingers
	// behind it (MaxBatch above the queue depth, so it never fills), so
	// the two-deep queue fills and the third submission sheds.
	gate := newGate()
	s, err := fleet.New(fleet.Options{MaxBatch: 4, MaxLinger: 1000, QueueDepth: 2, Journal: a}, fleet.Unit{Backend: gate})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	in := tensor.RandomVolume(3, 9, 9, 5)
	w := tensor.RandomKernels(4, 3, 3, 3, 50)
	cfg := tensor.ConvConfig{Stride: 1, Pad: 1}
	f1 := s.ConvAsync(ctx, in, w, cfg, false)
	f2 := s.ConvAsync(ctx, in, w, cfg, false)
	shed := s.ConvAsync(ctx, in, w, cfg, false)
	if _, err := shed.Volume(); !errors.Is(err, fleet.ErrOverloaded) {
		t.Fatalf("third submission: err = %v, want ErrOverloaded", err)
	}
	if got := shed.JournalSeq(); got != -1 {
		t.Fatalf("shed JournalSeq = %d, want -1", got)
	}
	close(gate.open)
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := f1.JournalSeq(); got != 1 {
		t.Fatalf("first admit JournalSeq = %d, want 1", got)
	}
	if got := f2.JournalSeq(); got != 2 {
		t.Fatalf("second admit JournalSeq = %d, want 2", got)
	}
	a.Drain()
	if err := a.Close(); err != nil {
		t.Fatalf("journal Close: %v", err)
	}

	snap, err := journal.Read(dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	var sheds []journal.Shed
	for _, rec := range snap.Records {
		if rec.Kind == journal.KindShed {
			sh, err := journal.DecodeShed(rec.Payload)
			if err != nil {
				t.Fatalf("shed payload: %v", err)
			}
			sheds = append(sheds, sh)
		}
	}
	if len(sheds) != 1 {
		t.Fatalf("sheds journaled = %d, want 1", len(sheds))
	}
	if sheds[0].Op != journal.OpConv || sheds[0].Queued != 2 {
		t.Fatalf("shed record = %+v, want conv at queue depth 2", sheds[0])
	}
}
