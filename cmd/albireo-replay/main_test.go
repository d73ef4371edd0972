package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"albireo/internal/fleet"
	"albireo/internal/journal"
	"albireo/internal/obs"
)

// recordJournal serves a short seeded run with journaling on and
// returns the journal directory, writer left un-Closed (crash
// simulation: recovery and replay must need nothing from it).
func recordJournal(t *testing.T) string {
	t.Helper()
	spec := fleet.PoolSpec{Pool: 2, Seed: 7, Budget: 100, Detune: "0,0,4,2,0.4", KeepDegraded: true}
	hdr := journal.Header{
		Pool: int64(spec.Pool), Seed: spec.Seed, Size: 8,
		Budget: spec.Budget, KeepDegraded: spec.KeepDegraded, Detune: spec.Detune,
	}
	dir := t.TempDir()
	w, err := journal.Create(dir, hdr, journal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	a := journal.NewAsync(w, 0)
	a.Start()

	units, _, err := fleet.BuildUnits(spec, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatalf("BuildUnits: %v", err)
	}
	s, err := fleet.New(fleet.Options{QueueDepth: 32, KeepDegraded: true, Journal: a}, units...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := context.Background()
	if err := fleet.Sweep(ctx, s.Bind(ctx), 2, int(hdr.Size), 7); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	a.Drain()
	return dir
}

func TestReplayVerifyAndFull(t *testing.T) {
	t.Parallel()
	dir := recordJournal(t)

	var vout strings.Builder
	if err := run([]string{"-journal", dir, "-verify"}, &vout); err != nil {
		t.Fatalf("verify mode: %v", err)
	}
	if !strings.Contains(vout.String(), "chain verified") || !strings.Contains(vout.String(), "head hash") {
		t.Fatalf("verify output: %q", vout.String())
	}

	var fout strings.Builder
	if err := run([]string{"-journal", dir}, &fout); err != nil {
		t.Fatalf("full replay: %v", err)
	}
	out := fout.String()
	if !strings.Contains(out, "verified bit-for-bit") {
		t.Fatalf("replay output: %q", out)
	}
	if strings.Contains(out, "0/0 delivered") {
		t.Fatalf("replay verified nothing: %q", out)
	}
}

func TestReplayDetectsDivergence(t *testing.T) {
	t.Parallel()
	dir := recordJournal(t)
	var out strings.Builder
	err := run([]string{"-journal", dir, "-extra-detune", "0,1,3,1,0.3"}, &out)
	if err == nil {
		t.Fatal("perturbed replay must fail")
	}
	if _, ok := journal.AsDivergence(err); !ok {
		t.Fatalf("perturbed replay error = %v, want *Divergence", err)
	}
	if !strings.Contains(out.String(), "DIVERGED at seq") {
		t.Fatalf("divergence output: %q", out.String())
	}
}

func TestReplayFlagErrors(t *testing.T) {
	t.Parallel()
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("missing -journal must error")
	}
	if err := run([]string{"-journal", t.TempDir()}, io.Discard); err == nil {
		t.Fatal("empty journal dir must error")
	}
}
