package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Kind types a journal record.
type Kind uint8

const (
	// KindHeader is the journal's first record: pool flags (Header).
	KindHeader Kind = 1
	// KindAdmit records one admitted request with its full canonical
	// payload (Request). The record's sequence number is the request's
	// correlation id (the X-Albireo-Seq header).
	KindAdmit Kind = 2
	// KindShed records an admission refusal (Shed).
	KindShed Kind = 3
	// KindDeliver records a completed execution: which worker served
	// which admitted request, and the output hash (Deliver).
	KindDeliver Kind = 4
	// KindCancel records a request whose context ended before a worker
	// executed it (Cancel).
	KindCancel Kind = 5
	// KindDrain records a worker leaving the routing set (Transition).
	KindDrain Kind = 6
	// KindRestore records a drained worker returning to service
	// (Transition).
	KindRestore Kind = 7
	// KindFallback records a guarded-backend fallback to the digital
	// reference (Fallback).
	KindFallback Kind = 8
	// KindRestart records a journal reopened for append after a crash
	// or restart (Restart).
	KindRestart Kind = 9
	// KindShard records one kernel-group sub-request of a sharded
	// admit executed on a worker (ShardRec). It is emitted on the
	// worker goroutine at execution time - like KindDeliver - so the
	// journal order of one worker's records (shards and delivers
	// alike) is that worker's execution order, the property replay
	// relies on to reproduce per-chip noise and drift state. The
	// parent's KindDeliver carries Worker -1 and the merged output
	// hash.
	KindShard Kind = 10
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case KindHeader:
		return "header"
	case KindAdmit:
		return "admit"
	case KindShed:
		return "shed"
	case KindDeliver:
		return "deliver"
	case KindCancel:
		return "cancel"
	case KindDrain:
		return "drain"
	case KindRestore:
		return "restore"
	case KindFallback:
		return "fallback"
	case KindRestart:
		return "restart"
	case KindShard:
		return "shard"
	default:
		return "unknown"
	}
}

// Record is one decoded journal entry.
type Record struct {
	// Seq is the record's position in the chain (0 is the header).
	Seq uint64
	// Kind types the payload.
	Kind Kind
	// Chain is the stored chain hash H(Seq); Verify re-derives it.
	Chain [32]byte
	// Payload is the kind-specific canonical encoding.
	Payload []byte
}

// chainHash derives H(seq) = SHA256(prev || seq || kind || payload),
// the Merkle-chain rule every record must satisfy.
func chainHash(prev [32]byte, seq uint64, kind Kind, payload []byte) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	var fixed [9]byte
	binary.LittleEndian.PutUint64(fixed[:8], seq)
	fixed[8] = byte(kind)
	h.Write(fixed[:])
	h.Write(payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Shed is the payload of a KindShed record.
type Shed struct {
	// Op is the refused request's op kind.
	Op Op
	// Queued is the admission-queue occupancy at refusal.
	Queued int64
}

// Deliver is the payload of a KindDeliver record.
type Deliver struct {
	// Admit is the sequence number of the request's KindAdmit record.
	Admit uint64
	// Worker is the pool index that executed the request.
	Worker int64
	// Hash is the SHA-256 of the canonical output encoding - the value
	// replay must reproduce bit-for-bit.
	Hash [32]byte
}

// Cancel is the payload of a KindCancel record.
type Cancel struct {
	// Admit is the sequence number of the request's KindAdmit record.
	Admit uint64
}

// Transition is the payload of KindDrain and KindRestore records.
type Transition struct {
	// Worker is the pool index changing service state.
	Worker int64
	// Findings is the BIST finding count behind the decision (0 for
	// restores).
	Findings int64
	// Probe marks a transition decided by a runtime re-probe scan -
	// which replay must re-execute to reproduce the chip's drift and
	// quarantine state - as opposed to the startup scan, which replay
	// performs unconditionally.
	Probe bool
}

// Fallback is the payload of a KindFallback record.
type Fallback struct {
	// Worker is the pool index whose guard fell back.
	Worker int64
	// Op names the layer-op kind that exceeded its budget.
	Op Op
}

// ShardRec is the payload of a KindShard record: one kernel-group
// window of an admitted request, bound to the worker that executes it.
type ShardRec struct {
	// Admit is the sequence number of the parent's KindAdmit record.
	Admit uint64
	// Worker is the pool index the sub-request was dispatched to.
	Worker int64
	// Pos, Count, Of are the core.ShardSpec window: the sub-request
	// owns kernels m with m % Of in [Pos, Pos+Count).
	Pos, Count, Of int64
}

// Restart is the payload of a KindRestart record.
type Restart struct {
	// Recovered is the last sequence number found valid on reopen.
	Recovered uint64
	// TruncatedBytes is how much torn tail recovery dropped (0 for a
	// clean reopen).
	TruncatedBytes int64
}

// Payload is the type set of the fixed-width record payloads. Each
// encodes as its fields in declaration order: integers little-endian
// at their declared width, bools as one 0 or 1 byte, arrays byte for
// byte. A new fixed-width record kind is one more struct here.
type Payload interface {
	Shed | Deliver | Cancel | Transition | Fallback | ShardRec | Restart
}

// Encode renders a fixed-width payload's canonical encoding.
func Encode[P Payload](p P) []byte {
	b := bytes.NewBuffer(make([]byte, 0, binary.Size(p)))
	binary.Write(b, binary.LittleEndian, p) // fixed-width fields only: cannot fail
	return b.Bytes()
}

// Decode parses a fixed-width payload. It accepts only the canonical
// encoding: the decoded value must re-encode to exactly b, which
// rejects short input, trailing bytes and a bool byte other than 0 or
// 1 (any of which would give one record two encodings, and so two
// chains).
func Decode[P Payload](b []byte) (P, error) {
	var p, zero P
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, &p); err != nil {
		return zero, fmt.Errorf("journal: %T: %w", p, err)
	}
	if !bytes.Equal(Encode(p), b) {
		return zero, fmt.Errorf("journal: %T: non-canonical encoding of %d bytes", p, len(b))
	}
	return p, nil
}

// EncodeFallback renders the canonical fallback encoding.
func EncodeFallback(f Fallback) []byte { return Encode(f) }

// Hash digests an output's canonical encoding - its dimensions (Z,Y,X
// of a volume, R,C of a matrix, the length of a vector), then its
// elements' IEEE-754 bits, all as little-endian 64-bit words. It is the
// bit-exact output identity a KindDeliver record pins and replay must
// reproduce.
func Hash(data []float64, dims ...int) [32]byte {
	b := make([]byte, 0, 8*(len(dims)+len(data)))
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	for _, f := range data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return sha256.Sum256(b)
}
