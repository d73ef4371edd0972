// Package journal is the tamper-evident request journal: an
// append-only, hash-chained record of every admission decision the
// serving stack takes - admitted requests (with their full canonical
// payload), shed decisions, worker drain/return-to-service
// transitions, guarded-fallback events, and per-request output hashes.
// Because the analog pipeline is deterministic (Albireo's
// weight-stationary Algorithm 2 makes replaying a recorded request
// trace cheap: the same per-worker op sequence reproduces the same
// program-cache and drift state), a journal is sufficient to
// re-execute production traffic bit-for-bit after the fact -
// cmd/albireo-replay does exactly that - which turns the repo's
// determinism invariant from a test-only property into a standing,
// auditable production check.
//
// Layout. A journal is a directory of fsync'd segment files, each a
// sequence of CRC-framed records. Record n carries the SHA-256 chain
// hash H(n) = SHA256(H(n-1) || seq || kind || payload) with H(-1) =
// 32 zero bytes, so any post-hoc rewrite of an earlier record is
// detected by re-deriving the chain (the Merkle-chain idiom of
// audit logs). The CRC catches accidental corruption cheaply and lets
// recovery distinguish a torn tail (final frame incomplete or
// failing its checksum) from mid-file damage, which is never
// silently dropped.
//
// Determinism contract. Records carry no wall time - sequence numbers
// are the only clock - so identical request traces produce
// byte-identical journals, and the chain head hash doubles as a
// digest of the entire serving history.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"albireo/internal/tensor"
)

// Op identifies the layer-op kind of a journaled request.
type Op uint8

const (
	// OpConv is a (possibly grouped or depthwise) convolution.
	OpConv Op = 1
	// OpFC is a fully-connected classifier layer.
	OpFC Op = 2
	// OpGEMM is a dense matrix product (an MLP head layer, or any
	// workload-agnostic GEMM submission).
	OpGEMM Op = 3
	// OpLSTM is a GEMM issued by an LSTM cell's gate computation. The
	// arithmetic is identical to OpGEMM; the tag preserves workload
	// attribution in the journal and in fleet telemetry.
	OpLSTM Op = 4
	// OpAttention is a GEMM issued by an attention block (QK^T or AV).
	OpAttention Op = 5
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpConv:
		return "conv"
	case OpFC:
		return "fc"
	case OpGEMM:
		return "gemm"
	case OpLSTM:
		return "lstm"
	case OpAttention:
		return "attention"
	default:
		return "unknown"
	}
}

// GEMMFamily reports whether the op is a matrix-product op (OpGEMM or
// a workload-tagged variant) rather than a volume op.
func (o Op) GEMMFamily() bool {
	return o == OpGEMM || o == OpLSTM || o == OpAttention
}

// Request is the canonical serialized form of one admitted layer op:
// tensor geometry, payload, op kind, and convolution config. It is the
// single request representation shared by the fleet scheduler, the
// journal, and the replay tool (and the representation multi-node
// sharding will ship across the wire).
type Request struct {
	// Op is the layer-op kind.
	Op Op
	// ReLU applies the activation after the op.
	ReLU bool
	// Cfg is the convolution geometry (zero value for OpFC; unused by
	// the GEMM family).
	Cfg tensor.ConvConfig
	// A is the input activation volume (volume ops only).
	A *tensor.Volume
	// W is the kernel bank (classifier kernels for OpFC; volume ops
	// only).
	W *tensor.Kernels
	// MA and MB are the matrix operands of a GEMM-family op (nil for
	// volume ops).
	MA, MB *tensor.Matrix
}

// maxTensorElems bounds a decoded tensor's element count (per tensor)
// so a corrupt length field cannot drive a huge allocation.
const maxTensorElems = 64 << 20

// EncodeRequest renders the canonical deterministic binary encoding:
// fixed-width little-endian fields, float64s as IEEE-754 bits. Two
// requests encode to the same bytes iff they are bit-identical. The
// leading op byte selects the layout: volume ops (conv, fc) keep the
// original conv/fc frame byte-for-byte; GEMM-family ops use a matrix
// frame (op, relu, A shape+data, B shape+data).
func EncodeRequest(r *Request) []byte {
	if r.Op.GEMMFamily() {
		e := newEncoder(2 + 4*8 + 8*(len(r.MA.Data)+len(r.MB.Data)))
		e.u8(uint8(r.Op))
		e.bool(r.ReLU)
		e.i64(int64(r.MA.R))
		e.i64(int64(r.MA.C))
		for _, v := range r.MA.Data {
			e.f64(v)
		}
		e.i64(int64(r.MB.R))
		e.i64(int64(r.MB.C))
		for _, v := range r.MB.Data {
			e.f64(v)
		}
		return e.buf
	}
	e := newEncoder(2 + 4*8 + 3*8 + 4*8 + 8*(len(r.A.Data)+len(r.W.Data)) + 16)
	e.u8(uint8(r.Op))
	e.bool(r.ReLU)
	e.i64(int64(r.Cfg.Stride))
	e.i64(int64(r.Cfg.Pad))
	e.i64(int64(r.Cfg.Groups))
	e.bool(r.Cfg.Depthwise)
	e.i64(int64(r.A.Z))
	e.i64(int64(r.A.Y))
	e.i64(int64(r.A.X))
	for _, v := range r.A.Data {
		e.f64(v)
	}
	e.i64(int64(r.W.M))
	e.i64(int64(r.W.Z))
	e.i64(int64(r.W.Y))
	e.i64(int64(r.W.X))
	for _, v := range r.W.Data {
		e.f64(v)
	}
	return e.buf
}

// DecodeRequest parses a canonical request encoding, validating shape
// fields against the payload length.
func DecodeRequest(b []byte) (*Request, error) {
	d := newDecoder(b)
	r := &Request{}
	r.Op = Op(d.u8())
	r.ReLU = d.bool()
	if r.Op.GEMMFamily() {
		ar, ac := d.i64(), d.i64()
		n, err := tensorLen(ar, ac, 1, 1)
		if err != nil {
			return nil, fmt.Errorf("journal: request matrix A shape: %w", err)
		}
		r.MA = &tensor.Matrix{R: int(ar), C: int(ac), Data: d.f64s(n)}
		br, bc := d.i64(), d.i64()
		if n, err = tensorLen(br, bc, 1, 1); err != nil {
			return nil, fmt.Errorf("journal: request matrix B shape: %w", err)
		}
		r.MB = &tensor.Matrix{R: int(br), C: int(bc), Data: d.f64s(n)}
		if err := d.finish(); err != nil {
			return nil, fmt.Errorf("journal: request: %w", err)
		}
		return r, nil
	}
	r.Cfg.Stride = int(d.i64())
	r.Cfg.Pad = int(d.i64())
	r.Cfg.Groups = int(d.i64())
	r.Cfg.Depthwise = d.bool()
	az, ay, ax := d.i64(), d.i64(), d.i64()
	n, err := tensorLen(az, ay, ax, 1)
	if err != nil {
		return nil, fmt.Errorf("journal: request activation shape: %w", err)
	}
	r.A = &tensor.Volume{Z: int(az), Y: int(ay), X: int(ax), Data: d.f64s(n)}
	wm, wz, wy, wx := d.i64(), d.i64(), d.i64(), d.i64()
	n, err = tensorLen(wz, wy, wx, wm)
	if err != nil {
		return nil, fmt.Errorf("journal: request kernel shape: %w", err)
	}
	r.W = &tensor.Kernels{M: int(wm), Z: int(wz), Y: int(wy), X: int(wx), Data: d.f64s(n)}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("journal: request: %w", err)
	}
	if r.Op != OpConv && r.Op != OpFC {
		return nil, fmt.Errorf("journal: request has unknown op %d", r.Op)
	}
	return r, nil
}

// tensorLen validates a decoded shape and returns its element count.
func tensorLen(z, y, x, m int64) (int, error) {
	if z < 0 || y < 0 || x < 0 || m < 0 {
		return 0, fmt.Errorf("negative dimension %dx%dx%dx%d", m, z, y, x)
	}
	n := m * z
	if z != 0 && n/z != m {
		return 0, errors.New("dimension overflow")
	}
	for _, d := range []int64{y, x} {
		prev := n
		n *= d
		if d != 0 && n/d != prev {
			return 0, errors.New("dimension overflow")
		}
	}
	if n > maxTensorElems {
		return 0, fmt.Errorf("tensor of %d elements exceeds decode bound", n)
	}
	return int(n), nil
}

// Header is the journal's first record: the pool-construction flags a
// replay needs to rebuild a bit-identical fleet. It is written once at
// Create and immutable thereafter.
type Header struct {
	// Pool is the worker count; worker i's chip uses Seed+i.
	Pool int64 `json:"pool"`
	// Seed is the base weight/input seed.
	Seed int64 `json:"seed"`
	// Size is the served model's input spatial size (forensic only;
	// replay re-executes raw layer ops and never rebuilds the model).
	Size int64 `json:"size"`
	// Budget is the accuracy-guard relative divergence budget.
	Budget float64 `json:"budget"`
	// KeepDegraded mirrors the fleet routing policy flag.
	KeepDegraded bool `json:"keep_degraded"`
	// Detune is the worker-0 fault-injection spec ("" for none).
	Detune string `json:"detune"`
}

// EncodeHeader renders the canonical header encoding.
func EncodeHeader(h Header) []byte {
	e := newEncoder(64 + len(h.Detune))
	e.i64(h.Pool)
	e.i64(h.Seed)
	e.i64(h.Size)
	e.f64(h.Budget)
	e.bool(h.KeepDegraded)
	e.str(h.Detune)
	return e.buf
}

// DecodeHeader parses a canonical header encoding.
func DecodeHeader(b []byte) (Header, error) {
	d := newDecoder(b)
	h := Header{
		Pool:         d.i64(),
		Seed:         d.i64(),
		Size:         d.i64(),
		Budget:       d.f64(),
		KeepDegraded: d.bool(),
		Detune:       d.str(),
	}
	if err := d.finish(); err != nil {
		return Header{}, fmt.Errorf("journal: header: %w", err)
	}
	return h, nil
}

// encoder builds canonical little-endian binary encodings.
type encoder struct{ buf []byte }

func newEncoder(sizeHint int) *encoder {
	return &encoder{buf: make([]byte, 0, sizeHint)}
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// decoder parses canonical encodings with a sticky error: out-of-range
// reads return zero values and surface once through finish.
type decoder struct {
	buf []byte
	off int
	err error
}

func newDecoder(b []byte) *decoder { return &decoder{buf: b} }

// take returns the next n bytes, or nil after marking truncation.
func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || len(d.buf)-d.off < n {
		if d.err == nil {
			d.err = errors.New("truncated encoding")
		}
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// bool accepts only the canonical 0/1 bytes: any other value would
// decode to a record whose re-encoding (and therefore chain hash)
// differs from what is on disk.
func (d *decoder) bool() bool {
	b := d.u8()
	if b > 1 && d.err == nil {
		d.err = fmt.Errorf("non-canonical bool byte %#x", b)
	}
	return b != 0
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := d.u32()
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// f64s decodes n float64s.
func (d *decoder) f64s(n int) []float64 {
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// finish reports the sticky decode error, also failing if bytes
// remain (canonical encodings have no slack).
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}
