package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"albireo/internal/tensor"
)

// goldenHash is a fixed output hash for the deliver record.
var goldenHash = sha256.Sum256([]byte("albireo golden deliver"))

// goldenPayloads holds one value of each fixed-width payload kind with
// its exact on-disk encoding, in the order the golden journal writes
// them.
var goldenPayloads = []struct {
	kind Kind
	val  any
	hex  string
}{
	{KindShed, Shed{Op: OpAttention, Queued: -3}, "05fdffffffffffffff"},
	{KindDeliver, Deliver{Admit: 0x0102030405060708, Worker: -1, Hash: goldenHash},
		"0807060504030201ffffffffffffffff" + hex.EncodeToString(goldenHash[:])},
	{KindCancel, Cancel{Admit: 1 << 63}, "0000000000000080"},
	{KindDrain, Transition{Worker: 2, Findings: 300, Probe: true}, "02000000000000002c0100000000000001"},
	{KindRestore, Transition{Worker: 2}, "0200000000000000000000000000000000"},
	{KindFallback, Fallback{Worker: 1, Op: OpLSTM}, "010000000000000004"},
	{KindShard, ShardRec{Admit: 9, Worker: 3, Pos: 5, Count: 4, Of: 9},
		"0900000000000000030000000000000005000000000000000400000000000000" + "0900000000000000"},
	{KindRestart, Restart{Recovered: 41, TruncatedBytes: 17}, "29000000000000001100000000000000"},
}

// goldenHeader is the golden journal's header record.
var goldenHeader = Header{Pool: 3, Seed: -5, Size: 12, Budget: 0.25, KeepDegraded: true, Detune: "0,1,4,2,0.4"}

const goldenHeaderHex = "0300000000000000fbffffffffffffff0c00000000000000000000000000d03f01" +
	"0b000000302c312c342c322c302e34"

// goldenRequests holds a conv, an FC and a GEMM-family request with
// their exact encodings. Signed zero, a subnormal and an infinity
// check that floats are stored as raw IEEE-754 bits.
var goldenRequests = []struct {
	req *Request
	hex string
}{
	{&Request{
		Op:   OpConv,
		ReLU: true,
		Cfg:  tensor.ConvConfig{Stride: 2, Pad: 1, Groups: 1, Depthwise: true},
		A:    &tensor.Volume{Z: 1, Y: 1, X: 2, Data: []float64{1.5, math.Copysign(0, -1)}},
		W:    &tensor.Kernels{M: 1, Z: 1, Y: 1, X: 1, Data: []float64{-2}},
	}, "0101" + "0200000000000000" + "0100000000000000" + "0100000000000000" + "01" +
		"0100000000000000" + "0100000000000000" + "0200000000000000" +
		"000000000000f83f" + "0000000000000080" +
		"0100000000000000" + "0100000000000000" + "0100000000000000" + "0100000000000000" +
		"00000000000000c0"},
	{&Request{
		Op: OpFC,
		A:  &tensor.Volume{Z: 2, Y: 1, X: 1, Data: []float64{math.SmallestNonzeroFloat64, math.Inf(1)}},
		W:  &tensor.Kernels{M: 1, Z: 2, Y: 1, X: 1, Data: []float64{0.1, -0.5}},
	}, "0200" + "0000000000000000" + "0000000000000000" + "0000000000000000" + "00" +
		"0200000000000000" + "0100000000000000" + "0100000000000000" +
		"0100000000000000" + "000000000000f07f" +
		"0100000000000000" + "0200000000000000" + "0100000000000000" + "0100000000000000" +
		"9a9999999999b93f" + "000000000000e0bf"},
	{&Request{
		Op:   OpAttention,
		ReLU: true,
		MA:   &tensor.Matrix{R: 1, C: 2, Data: []float64{3, -1}},
		MB:   &tensor.Matrix{R: 2, C: 1, Data: []float64{0.5, 4}},
	}, "0501" + "0100000000000000" + "0200000000000000" +
		"0000000000000840" + "000000000000f0bf" +
		"0200000000000000" + "0100000000000000" +
		"000000000000e03f" + "0000000000001040"},
}

// goldenOutputs pins the output identity: the SHA-256 of an output's
// shape then its IEEE-754 bits, little-endian.
var goldenOutputs = []struct {
	out  any
	want string
}{
	{&tensor.Volume{Z: 1, Y: 1, X: 2, Data: []float64{1, -2}}, "7c9c89e48c717a18c02b7ceffce8d99c6770d57cf439e8157df6e8d152dced9c"},
	{&tensor.Matrix{R: 2, C: 1, Data: []float64{0.5, 3}}, "e2af1bfe012205e170c701096bdbd7e7df2ed374834a9cbf6cce6371955306af"},
	{[]float64{3, 1, 4}, "938336e3e718e656650d874f9339f1a0a37afb54405609a144e7ed7c83ecebf7"},
}

// TestGoldenFormats pins every journal byte format to its exact
// encoding: each fixed-width payload kind, the header, a conv, an FC
// and a GEMM-family request, the output hash, and the segment file and
// chain head of a journal written from them. A codec change that moves
// one byte fails here, before any journal written by an older build
// stops replaying.
func TestGoldenFormats(t *testing.T) {
	for _, c := range goldenPayloads {
		want, _ := hex.DecodeString(c.hex)
		if got := encodePayload(c.val); !bytes.Equal(got, want) {
			t.Errorf("%v %+v encodes to %x, want %s", c.kind, c.val, got, c.hex)
		}
		got, err := decodePayload(c.val, want)
		if err != nil || !reflect.DeepEqual(got, c.val) {
			t.Errorf("%v decodes %s to %+v, %v; want %+v", c.kind, c.hex, got, err, c.val)
		}
	}
	if got := hex.EncodeToString(EncodeHeader(goldenHeader)); got != goldenHeaderHex {
		t.Errorf("header encodes to %s, want %s", got, goldenHeaderHex)
	}
	for _, c := range goldenRequests {
		enc := EncodeRequest(c.req)
		if got := hex.EncodeToString(enc); got != c.hex {
			t.Errorf("%v request encodes to %s, want %s", c.req.Op, got, c.hex)
		}
		if r, err := DecodeRequest(enc); err != nil || !bytes.Equal(EncodeRequest(r), enc) {
			t.Errorf("%v request does not round-trip: %v", c.req.Op, err)
		}
	}
	for _, c := range goldenOutputs {
		h := hashOutput(c.out)
		if got := hex.EncodeToString(h[:]); got != c.want {
			t.Errorf("output %T hashes to %s, want %s", c.out, got, c.want)
		}
	}

	dir := t.TempDir()
	w, err := Create(dir, goldenHeader, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, c := range goldenRequests {
		if _, err := w.Append(KindAdmit, EncodeRequest(c.req)); err != nil {
			t.Fatalf("Append admit: %v", err)
		}
	}
	for _, c := range goldenPayloads {
		if _, err := w.Append(c.kind, encodePayload(c.val)); err != nil {
			t.Fatalf("Append %v: %v", c.kind, err)
		}
	}
	_, head := w.Head()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	const wantHead = "8460a0e61e226721aba0e53591271872e45827c082549221ab3ed54f93095e0c"
	if got := hex.EncodeToString(head[:]); got != wantHead {
		t.Errorf("chain head = %s, want %s", got, wantHead)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "seg-00000000.alj"))
	if err != nil {
		t.Fatal(err)
	}
	const wantSegment = "7515839582d6cbb480af10c174141b42d92db355661df595decd513e8256141d"
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != wantSegment {
		t.Errorf("segment file (%d bytes) has SHA-256 %x, want %s", len(raw), sum, wantSegment)
	}
	snap, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if snap.Head != head || snap.Header != goldenHeader || snap.Count != 1+len(goldenRequests)+len(goldenPayloads) {
		t.Fatalf("Verify read head %x, header %+v, %d records", snap.Head, snap.Header, snap.Count)
	}
}
