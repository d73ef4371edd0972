package journal

import (
	"bytes"
	"testing"

	"albireo/internal/tensor"
)

// FuzzRecordRoundTrip throws arbitrary bytes at every payload decoder.
// Two properties hold for each: the decoder never panics (it is fed
// raw disk contents during crash recovery), and any input it accepts
// re-encodes to exactly the bytes it came from - the canonical-
// encoding invariant the hash chain depends on (two encodings of one
// record would be two different chains).
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(EncodeRequest(&Request{
		Op:   OpConv,
		ReLU: true,
		Cfg:  tensor.ConvConfig{Stride: 1, Pad: 1},
		A:    tensor.RandomVolume(2, 3, 3, 11),
		W:    tensor.RandomKernels(2, 2, 3, 3, 12),
	}))
	f.Add(EncodeRequest(&Request{
		Op: OpFC,
		A:  tensor.RandomVolume(3, 2, 2, 5),
		W:  tensor.RandomKernels(4, 3, 2, 2, 6),
	}))
	f.Add(EncodeRequest(&Request{
		Op:   OpGEMM,
		ReLU: true,
		MA:   tensor.RandomMatrix(3, 4, 21),
		MB:   tensor.RandomMatrix(4, 2, 22),
	}))
	f.Add(EncodeRequest(&Request{
		Op: OpLSTM,
		MA: tensor.RandomMatrix(2, 3, 23),
		MB: tensor.RandomMatrix(3, 8, 24),
	}))
	f.Add(EncodeRequest(&Request{
		Op: OpAttention,
		MA: tensor.RandomMatrix(4, 4, 25),
		MB: tensor.RandomMatrix(4, 4, 26),
	}))
	f.Add(EncodeHeader(Header{Pool: 2, Seed: 7, Size: 8, Budget: 0.5, KeepDegraded: true, Detune: "0,0,4,2,0.4"}))
	f.Add(Encode(Shed{Op: OpFC, Queued: 16}))
	f.Add(Encode(Deliver{Admit: 3, Worker: 1, Hash: Hash([]float64{1, 2, 3}, 3)}))
	f.Add(Encode(Cancel{Admit: 9}))
	f.Add(Encode(Transition{Worker: 1, Findings: 2, Probe: true}))
	f.Add(Encode(Fallback{Worker: 0, Op: OpConv}))
	f.Add(Encode(ShardRec{Admit: 4, Worker: 1, Pos: 5, Count: 4, Of: 9}))
	f.Add(Encode(Restart{Recovered: 41, TruncatedBytes: 17}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeRequest(data); err == nil {
			if !bytes.Equal(EncodeRequest(r), data) {
				t.Fatal("DecodeRequest accepted a non-canonical encoding")
			}
		}
		if h, err := DecodeHeader(data); err == nil {
			if !bytes.Equal(EncodeHeader(h), data) {
				t.Fatal("DecodeHeader accepted a non-canonical encoding")
			}
		}
		roundTrip[Shed](t, data)
		roundTrip[Deliver](t, data)
		roundTrip[Cancel](t, data)
		roundTrip[Transition](t, data)
		roundTrip[Fallback](t, data)
		roundTrip[ShardRec](t, data)
		roundTrip[Restart](t, data)
	})
}

// roundTrip fails if Decode[P] accepts data that does not re-encode to
// exactly data.
func roundTrip[P Payload](t *testing.T, data []byte) {
	if p, err := Decode[P](data); err == nil && !bytes.Equal(Encode(p), data) {
		t.Fatalf("Decode[%T] accepted a non-canonical encoding", p)
	}
}
