package fleet

import (
	"errors"
	"fmt"

	"albireo/internal/core"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/tensor"
)

// Op dispatch. A layer op is one journal.Request - the value the
// scheduler queues, the journal records, and replay decodes - and this
// file is the only place that branches on its kind: the live workers
// and JournalExecutor allocate, execute, and hash outputs through the
// same functions, so serving and replay cannot drift apart.

// output is one op's result: exactly one of vol (conv), vec (FC), or
// mat (GEMM family) is set.
type output struct {
	vol *tensor.Volume
	vec []float64
	mat *tensor.Matrix
}

// maxOutputElems bounds every tensor checkOp lets an op allocate: the
// limit the journal decoder already puts on each decoded tensor.
const maxOutputElems = 64 << 20

// newOutput allocates op's full-size, zeroed output: the merge buffer
// a sharded request's windows fill in disjoint slices.
func newOutput(op *journal.Request) output {
	switch {
	case op.Op.GEMMFamily():
		return output{mat: tensor.NewMatrix(op.MA.R, op.MB.C)}
	case op.Op == journal.OpFC:
		return output{vec: make([]float64, op.W.M)}
	default:
		stride := max(op.Cfg.Stride, 1)
		by := tensor.ConvOutputDim(op.A.Y, op.W.Y, op.Cfg.Pad, stride)
		bx := tensor.ConvOutputDim(op.A.X, op.W.X, op.Cfg.Pad, stride)
		return output{vol: tensor.NewVolume(op.W.M, by, bx)}
	}
}

// runWhole executes op whole on a backend.
func runWhole(b inference.Backend, op *journal.Request) output {
	switch {
	case op.Op.GEMMFamily():
		return output{mat: b.GEMM(op.MA, op.MB, op.ReLU)}
	case op.Op == journal.OpFC:
		return output{vec: b.FullyConnected(op.A, op.W, op.ReLU)}
	default:
		return output{vol: b.Conv(op.A, op.W, op.Cfg, op.ReLU)}
	}
}

// runWindow executes one kernel-group window of a shardable op into
// out, a newOutput buffer of the same op.
func runWindow(sb ShardBackend, op *journal.Request, spec core.ShardSpec, out output) {
	switch {
	case op.Op.GEMMFamily():
		sb.GEMMShard(op.MA, op.MB, op.ReLU, spec, out.mat)
	case op.Op == journal.OpFC:
		sb.FullyConnectedShard(op.A, op.W, op.ReLU, spec, out.vec)
	default:
		sb.ConvShard(op.A, op.W, op.Cfg, op.ReLU, spec, out.vol)
	}
}

// hash digests the output's canonical encoding: the value a KindDeliver
// record pins and replay must reproduce.
func (o output) hash() [32]byte {
	switch {
	case o.vol != nil:
		return journal.Hash(o.vol.Data, o.vol.Z, o.vol.Y, o.vol.X)
	case o.mat != nil:
		return journal.Hash(o.mat.Data, o.mat.R, o.mat.C)
	default:
		return journal.Hash(o.vec, len(o.vec))
	}
}

// shardable reports whether op splits into kernel-group windows. Dense
// convolutions, FC layers, and GEMM-family products do; depthwise and
// grouped convolutions keep the whole path, because their
// kernel-to-channel coupling does not split at the output-kernel
// boundary.
func shardable(op *journal.Request) bool {
	return op.Op != journal.OpConv || !op.Cfg.Depthwise && (op.Cfg.Groups == 0 || op.Cfg.Groups == 1)
}

// shardBackend returns what executes a unit's kernel-group windows: the
// chip when there is one - bypassing the guard and observe wrappers, so
// replay reproduces the same noise stream by driving the rebuilt chip
// the same way - else the backend if it implements ShardBackend, else
// nil (the unit never takes shard windows).
func shardBackend(u Unit) ShardBackend {
	if u.Chip != nil {
		return u.Chip
	}
	sb, _ := u.Backend.(ShardBackend)
	return sb
}

// checkOp validates an op decoded from outside input (a journal whose
// hash chain anyone can rebuild) before it reaches a backend: operand
// shapes must agree the way the chip requires, config fields must be
// non-negative, conv and FC activations must be non-negative (the
// optical power encoding), and no tensor the op implies - output,
// output plane, or padded input - may exceed maxOutputElems. Every op
// a chip-backed pool served passes.
func checkOp(op *journal.Request) error {
	if op.Op.GEMMFamily() {
		if op.MA.R < 1 || op.MA.C < 1 || op.MB.C < 1 || op.MA.C != op.MB.R {
			return fmt.Errorf("fleet: gemm operands %dx%d and %dx%d do not multiply", op.MA.R, op.MA.C, op.MB.R, op.MB.C)
		}
		return bounded(op.MA.R, op.MB.C)
	}
	a, w, cfg := op.A, op.W, op.Cfg
	if err := bounded(a.Z, a.Y, a.X); err != nil {
		return err
	}
	for _, v := range a.Data {
		if !(v >= 0) { // NaN too
			return errors.New("fleet: conv/fc activations must be non-negative")
		}
	}
	switch groups := max(cfg.Groups, 1); {
	case op.Op == journal.OpFC:
		if w.Z != a.Z || w.Y != a.Y || w.X != a.X {
			return fmt.Errorf("fleet: fc kernel %dx%dx%d != input %dx%dx%d", w.Z, w.Y, w.X, a.Z, a.Y, a.X)
		}
		return bounded(w.M)
	case op.Op != journal.OpConv:
		return fmt.Errorf("fleet: unknown op %d", op.Op)
	case cfg.Stride < 0 || cfg.Pad < 0 || cfg.Groups < 0 || cfg.Stride > maxOutputElems || cfg.Pad > maxOutputElems:
		return fmt.Errorf("fleet: conv config %+v outside [0, %d]", cfg, maxOutputElems)
	case cfg.Depthwise && (w.M != a.Z || w.Z != 1):
		return fmt.Errorf("fleet: depthwise wants %d depth-1 kernels, got %dx%d", a.Z, w.M, w.Z)
	case !cfg.Depthwise && (a.Z%groups != 0 || w.M%groups != 0 || a.Z/groups != w.Z):
		return fmt.Errorf("fleet: %d kernels of depth %d do not split %d channels into %d groups", w.M, w.Z, a.Z, groups)
	}
	stride := max(cfg.Stride, 1)
	py, px := a.Y+2*cfg.Pad, a.X+2*cfg.Pad
	if w.Y > py || w.X > px {
		return fmt.Errorf("fleet: %dx%d kernel exceeds the %dx%d padded input", w.Y, w.X, py, px)
	}
	if err := bounded(a.Z, py+stride, px+stride); err != nil {
		return err
	}
	return bounded(w.M, (py-w.Y)/stride+1, (px-w.X)/stride+1)
}

// bounded rejects a tensor whose extents multiply past maxOutputElems.
// A zero extent counts as one, so an empty tensor cannot hide a huge
// plane.
func bounded(dims ...int) error {
	n := 1
	for _, d := range dims {
		d = max(d, 1)
		if n > maxOutputElems/d {
			return fmt.Errorf("fleet: op tensor %v exceeds %d elements", dims, maxOutputElems)
		}
		n *= d
	}
	return nil
}
