// Command albireo-replay re-executes a hash-chained request journal
// (written by albireo-serve -journal) against a freshly built pool and
// verifies the serving history bit-for-bit.
//
// Two modes:
//
//	albireo-replay -journal DIR -verify   # chain verification only
//	albireo-replay -journal DIR           # full re-execution
//
// -verify walks every segment, re-checks every frame CRC, and
// re-derives the hash chain record by record; any corruption before
// the torn tail fails with the corrupted sequence number. The full
// mode additionally rebuilds the pool from the journal header (same
// pool size, seeds, accuracy budget, and fault injection the recorded
// run used), reproduces the startup BIST scans, and re-executes every
// delivered request on the worker that originally served it - in
// journal order, which preserves each worker's recorded op sequence
// and with it the chip's program, cycle, and drift state - comparing
// every output hash against the recorded one. The first divergence is
// reported with its sequence number and the process exits nonzero.
//
// -extra-detune injects additional faults into worker 0 on top of the
// header's, which makes the rebuilt pool deliberately differ from the
// recorded one - the knob the divergence-detection tests (and skeptics
// of the determinism claim) use.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"albireo/internal/fleet"
	"albireo/internal/journal"
	"albireo/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "albireo-replay:", err)
		os.Exit(1)
	}
}

// run is the whole tool behind a single exit point so tests can drive
// it end to end.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("albireo-replay", flag.ContinueOnError)
	dir := fs.String("journal", "", "journal directory to replay (required)")
	verify := fs.Bool("verify", false, "verify the chain (CRCs + hash chain) without re-executing")
	extraDetune := fs.String("extra-detune", "", "inject extra worker-0 faults on top of the header's (forces divergence; for testing the detector)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-journal DIR is required")
	}

	if *verify {
		snap, err := journal.Verify(*dir)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "albireo-replay: chain verified: %d record(s), head seq %d, %d torn byte(s)\n",
			snap.Count, snap.LastSeq, snap.TornBytes)
		fmt.Fprintf(out, "albireo-replay: head hash %x\n", snap.Head)
		return nil
	}

	snap, err := journal.Read(*dir)
	if err != nil {
		return err
	}
	hdr := snap.Header
	spec := fleet.PoolSpec{
		Pool:         int(hdr.Pool),
		Seed:         hdr.Seed,
		Budget:       hdr.Budget,
		Detune:       hdr.Detune,
		KeepDegraded: hdr.KeepDegraded,
	}
	if *extraDetune != "" {
		if spec.Detune != "" {
			spec.Detune += ";"
		}
		spec.Detune += *extraDetune
	}
	fmt.Fprintf(out, "albireo-replay: rebuilding pool %d (seed %d, budget %g, detune %q)\n",
		spec.Pool, spec.Seed, spec.Budget, spec.Detune)

	// The rebuilt pool runs uninstrumented: replay verifies output
	// bits, and the recorded run's metrics are already in the journal's
	// sidecar telemetry, not re-derivable anyway (wall-driven batching
	// differs run to run).
	units, _, err := fleet.BuildUnits(spec, obs.NewRegistry(), nil)
	if err != nil {
		return err
	}
	fleet.StartupScan(units)

	res, err := journal.Replay(snap, &fleet.JournalExecutor{Units: units})
	if d, ok := journal.AsDivergence(err); ok {
		fmt.Fprintf(out, "albireo-replay: DIVERGED at seq %d (admit %d, worker %d) after %d verified request(s)\n",
			d.Seq, d.Admit, d.Worker, res.Verified)
		return err
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "albireo-replay: %d/%d delivered request(s) verified bit-for-bit (admits %d, sheds %d, cancels %d, fallbacks %d, probes %d, restarts %d)\n",
		res.Verified, res.Delivers, res.Admits, res.Sheds, res.Cancels, res.Fallbacks, res.Probes, res.Restarts)
	return nil
}
