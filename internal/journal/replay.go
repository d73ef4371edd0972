package journal

import (
	"errors"
	"fmt"
)

// Executor re-executes journaled work against a rebuilt pool. The
// implementation (cmd/albireo-replay) owns the backends; the replay
// engine owns record ordering and hash comparison.
type Executor interface {
	// Execute runs one admitted request on the given worker and
	// returns the canonical output hash (Hash).
	Execute(worker int, req *Request) ([32]byte, error)
	// Probe re-runs a runtime BIST probe cycle on the given worker
	// (clear quarantine, scan, re-quarantine findings), reproducing
	// the chip-state side effects of a recorded drain/restore
	// transition.
	Probe(worker int) error
	// ExecuteShard runs one kernel-group window (kernels m with
	// m % of in [pos, pos+count)) of the admitted request on the given
	// worker, accumulating the owned output slice into the parent's
	// merge buffer. The parent's merged hash is collected later by
	// FinishShard when its KindDeliver record (Worker -1) is reached.
	ExecuteShard(worker int, admit uint64, req *Request, pos, count, of int) error
	// FinishShard finalizes a sharded request's merge buffer and
	// returns the canonical hash of the merged output.
	FinishShard(admit uint64) ([32]byte, error)
}

// Divergence pinpoints the first replayed request whose output hash
// differs from the journaled one - the end-to-end determinism
// invariant failing, or the rebuilt pool not matching the recorded
// one (wrong flags, different fault state).
type Divergence struct {
	// Seq is the Deliver record's sequence number.
	Seq uint64
	// Admit is the diverging request's admission sequence number.
	Admit uint64
	// Worker is the pool index that served it.
	Worker int64
	// Want is the journaled output hash; Got is the replayed one.
	Want, Got [32]byte
}

// Error implements error.
func (d *Divergence) Error() string {
	return fmt.Sprintf("journal: replay diverged at seq %d (admit %d, worker %d): recorded %x, replayed %x",
		d.Seq, d.Admit, d.Worker, d.Want[:8], d.Got[:8])
}

// ReplayResult summarizes a replay pass.
type ReplayResult struct {
	// Admits, Delivers, Sheds, Cancels, Fallbacks, Probes count the
	// records of each class encountered.
	Admits, Delivers, Sheds, Cancels, Fallbacks, Probes int
	// Restarts counts journal reopenings recorded in the chain.
	Restarts int
	// ShardSubs counts kernel-group sub-request records re-executed.
	ShardSubs int
	// Verified counts delivers whose output hash matched bit-for-bit.
	Verified int
}

// Replay re-executes a journal snapshot against ex. Deliver records
// are executed in journal order - which preserves each worker's
// recorded execution order, and with it the chip's program-cache,
// cycle, and drift state - and every output hash is compared
// bit-for-bit. The first mismatch aborts with *Divergence; malformed
// records - including a deliver, shard, or cancel naming an admit the
// chain never recorded - abort with a decode error.
func Replay(snap *Snapshot, ex Executor) (ReplayResult, error) {
	var res ReplayResult
	admits := make(map[uint64]*Request)
	for _, rec := range snap.Records {
		switch rec.Kind {
		case KindHeader:
			// Decoded by Read already.
		case KindAdmit:
			req, err := DecodeRequest(rec.Payload)
			if err != nil {
				return res, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			admits[rec.Seq] = req
			res.Admits++
		case KindDeliver:
			d, err := Decode[Deliver](rec.Payload)
			if err != nil {
				return res, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			req, ok := admits[d.Admit]
			if !ok {
				return res, fmt.Errorf("seq %d: deliver references unknown admit %d", rec.Seq, d.Admit)
			}
			var got [32]byte
			if d.Worker < 0 {
				// Merged deliver of a sharded request: the per-worker
				// windows already ran at their KindShard records; this
				// collects the merge buffer's hash.
				got, err = ex.FinishShard(d.Admit)
				if err != nil {
					return res, fmt.Errorf("seq %d: finish shard admit %d: %w", rec.Seq, d.Admit, err)
				}
			} else {
				got, err = ex.Execute(int(d.Worker), req)
				if err != nil {
					return res, fmt.Errorf("seq %d: execute on worker %d: %w", rec.Seq, d.Worker, err)
				}
			}
			res.Delivers++
			if got != d.Hash {
				return res, &Divergence{Seq: rec.Seq, Admit: d.Admit, Worker: d.Worker, Want: d.Hash, Got: got}
			}
			res.Verified++
		case KindShed:
			if _, err := Decode[Shed](rec.Payload); err != nil {
				return res, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			res.Sheds++
		case KindCancel:
			c, err := Decode[Cancel](rec.Payload)
			if err != nil {
				return res, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			if _, ok := admits[c.Admit]; !ok {
				return res, fmt.Errorf("seq %d: cancel references unknown admit %d", rec.Seq, c.Admit)
			}
			res.Cancels++
		case KindFallback:
			if _, err := Decode[Fallback](rec.Payload); err != nil {
				return res, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			res.Fallbacks++
		case KindDrain, KindRestore:
			t, err := Decode[Transition](rec.Payload)
			if err != nil {
				return res, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			// Startup-scan transitions are reproduced by the executor's
			// pool construction; runtime re-probes must be re-run so the
			// chip sees the same probe vectors the recorded pool did.
			if t.Probe {
				if err := ex.Probe(int(t.Worker)); err != nil {
					return res, fmt.Errorf("seq %d: probe worker %d: %w", rec.Seq, t.Worker, err)
				}
				res.Probes++
			}
		case KindShard:
			s, err := Decode[ShardRec](rec.Payload)
			if err != nil {
				return res, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			req, ok := admits[s.Admit]
			if !ok {
				return res, fmt.Errorf("seq %d: shard references unknown admit %d", rec.Seq, s.Admit)
			}
			// Shard records are journaled at execution time on the worker
			// goroutine, so executing here preserves each worker's
			// recorded execution order exactly as whole-request delivers
			// do.
			if err := ex.ExecuteShard(int(s.Worker), s.Admit, req, int(s.Pos), int(s.Count), int(s.Of)); err != nil {
				return res, fmt.Errorf("seq %d: shard on worker %d: %w", rec.Seq, s.Worker, err)
			}
			res.ShardSubs++
		case KindRestart:
			r, err := Decode[Restart](rec.Payload)
			if err != nil {
				return res, fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			// OpenAppend writes the restart right after the last valid
			// record it recovered.
			if r.Recovered+1 != rec.Seq {
				return res, fmt.Errorf("seq %d: restart claims recovery through seq %d", rec.Seq, r.Recovered)
			}
			res.Restarts++
		default:
			return res, fmt.Errorf("seq %d: unknown record kind %d", rec.Seq, rec.Kind)
		}
	}
	return res, nil
}

// AsDivergence unwraps a replay error into its Divergence, if any.
func AsDivergence(err error) (*Divergence, bool) {
	var d *Divergence
	if errors.As(err, &d) {
		return d, true
	}
	return nil, false
}
