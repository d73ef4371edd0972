package fleet

import (
	"testing"

	"albireo/internal/core"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/tensor"
)

// replayCase is one admitted op replayed whole (deliver on worker 0)
// or, with a non-nil window, as one shard record plus its merged
// deliver.
type replayCase struct {
	name   string
	op     *journal.Request
	window *core.ShardSpec
}

// malformedOps are journal admits the decoder accepts but no backend
// can run: each must fail replay with an error.
func malformedOps() []replayCase {
	conv := validOps()[0].op
	return []replayCase{
		{name: "gemm inner dims", op: &journal.Request{Op: journal.OpGEMM,
			MA: tensor.RandomMatrix(2, 3, 1), MB: tensor.RandomMatrix(4, 2, 2)}},
		{name: "conv kernel depth", op: &journal.Request{Op: journal.OpConv,
			A: tensor.RandomVolume(2, 4, 4, 3), W: tensor.RandomKernels(3, 3, 3, 3, 4)}},
		{name: "shard window 5+9/3", op: conv, window: &core.ShardSpec{Pos: 5, Count: 9, Of: 3}},
		{name: "depthwise shard", op: &journal.Request{Op: journal.OpConv,
			Cfg: tensor.ConvConfig{Pad: 1, Depthwise: true},
			A:   tensor.RandomVolume(2, 4, 4, 5), W: tensor.RandomKernels(2, 1, 3, 3, 6)},
			window: &core.ShardSpec{Pos: 0, Count: 4, Of: 9}},
		{name: "conv pad 1<<40", op: &journal.Request{Op: journal.OpConv,
			Cfg: tensor.ConvConfig{Pad: 1 << 40},
			A:   tensor.RandomVolume(1, 2, 2, 7), W: tensor.RandomKernels(1, 1, 1, 1, 8)}},
		{name: "gemm 2^52-element output", op: &journal.Request{Op: journal.OpGEMM,
			MA: &tensor.Matrix{R: 1 << 26}, MB: &tensor.Matrix{C: 1 << 26}}},
	}
}

// validOps are well-formed admits of each op kind.
func validOps() []replayCase {
	return []replayCase{
		{name: "conv", op: &journal.Request{Op: journal.OpConv, ReLU: true,
			Cfg: tensor.ConvConfig{Stride: 1, Pad: 1},
			A:   tensor.RandomVolume(2, 4, 4, 11), W: tensor.RandomKernels(5, 2, 3, 3, 12)}},
		{name: "fc", op: &journal.Request{Op: journal.OpFC,
			A: tensor.RandomVolume(2, 2, 2, 13), W: tensor.RandomKernels(3, 2, 2, 2, 14)}},
		{name: "gemm", op: &journal.Request{Op: journal.OpGEMM,
			MA: tensor.RandomMatrix(3, 4, 15), MB: tensor.RandomMatrix(4, 5, 16)}},
	}
}

// replayUnit is the one-unit chip-backed pool malformed ops run on.
func replayUnit() []Unit {
	a := inference.NewAnalog(core.DefaultConfig())
	return []Unit{{Backend: a, Chip: a.Chip}}
}

// replayAdmit replays one admit payload against units: whole when
// window is nil, else as that shard window. The deliver hash is
// arbitrary, so a runnable op ends in a divergence.
func replayAdmit(units []Unit, payload []byte, window *core.ShardSpec) error {
	recs := []journal.Record{{Seq: 1, Kind: journal.KindAdmit, Payload: payload}}
	worker := int64(0)
	if window != nil {
		worker = -1
		recs = append(recs, journal.Record{Seq: 2, Kind: journal.KindShard, Payload: journal.Encode(journal.ShardRec{
			Admit: 1, Pos: int64(window.Pos), Count: int64(window.Count), Of: int64(window.Of),
		})})
	}
	recs = append(recs, journal.Record{Seq: uint64(len(recs) + 1), Kind: journal.KindDeliver,
		Payload: journal.Encode(journal.Deliver{Admit: 1, Worker: worker})})
	_, err := journal.Replay(&journal.Snapshot{Records: recs}, &JournalExecutor{Units: units})
	return err
}

// TestReplayRejectsMalformedOps: a journal is outside input, so replay
// answers an op no backend can run with an error - never a panic or an
// unbounded allocation - while every well-formed op still executes.
func TestReplayRejectsMalformedOps(t *testing.T) {
	units := replayUnit()
	for _, c := range malformedOps() {
		err := replayAdmit(units, journal.EncodeRequest(c.op), c.window)
		if _, diverged := journal.AsDivergence(err); err == nil || diverged {
			t.Errorf("%s: replay = %v, want a rejection", c.name, err)
		}
	}
	for _, c := range validOps() {
		for _, window := range []*core.ShardSpec{nil, {Pos: 2, Count: 3, Of: 9}} {
			if _, diverged := journal.AsDivergence(replayAdmit(units, journal.EncodeRequest(c.op), window)); !diverged {
				t.Errorf("%s (window %v): valid op did not execute", c.name, window)
			}
		}
	}
}

// FuzzReplayRequest feeds an arbitrary admit payload, replayed whole
// and as one arbitrary shard window, through journal.Replay on a
// one-unit pool. Property: replay returns a result or an error and
// never panics. Well-formed ops past a small arithmetic budget are
// skipped - they run correctly, just too slowly for a fuzz loop.
func FuzzReplayRequest(f *testing.F) {
	for _, c := range append(malformedOps(), validOps()...) {
		var w core.ShardSpec
		if c.window != nil {
			w = *c.window
		}
		f.Add(journal.EncodeRequest(c.op), int64(w.Pos), int64(w.Count), int64(w.Of))
	}
	units := replayUnit()
	f.Fuzz(func(t *testing.T, payload []byte, pos, count, of int64) {
		if op, err := journal.DecodeRequest(payload); err == nil && checkOp(op) == nil && opCost(op) > 1<<20 {
			t.Skip("well-formed op past the fuzz budget")
		}
		_ = replayAdmit(units, payload, nil)
		_ = replayAdmit(units, payload, &core.ShardSpec{Pos: int(pos), Count: int(count), Of: int(of)})
	})
}

// opCost roughly counts a checked op's multiply-accumulates.
func opCost(op *journal.Request) float64 {
	if op.Op.GEMMFamily() {
		return float64(op.MA.R) * float64(op.MA.C+1) * float64(op.MB.C)
	}
	span := 2*float64(op.Cfg.Pad) + float64(op.Cfg.Stride) + 1
	in := float64(op.A.Z+1) * (float64(op.A.Y) + span) * (float64(op.A.X) + span)
	return in * float64(op.W.M+1) * float64(op.W.Y*op.W.X+1)
}
