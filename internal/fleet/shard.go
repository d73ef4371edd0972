package fleet

import (
	"context"
	"math"
	"sync"

	"albireo/internal/core"
	"albireo/internal/journal"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// ShardBackend is the kernel-group execution interface a chipless
// backend can implement to join shard fan-outs. Each call executes
// only the kernels (or output columns) the shard window owns and
// writes them into the caller-allocated full-size output; windows of
// one request are disjoint, so concurrent shard calls against the
// same output never race.
type ShardBackend interface {
	ConvShard(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool, shard core.ShardSpec, out *tensor.Volume)
	FullyConnectedShard(a *tensor.Volume, w *tensor.Kernels, relu bool, shard core.ShardSpec, out []float64)
	GEMMShard(a, b *tensor.Matrix, relu bool, shard core.ShardSpec, out *tensor.Matrix)
}

// shardParent is the merge state of one sharded request: the
// pre-allocated full-size output its sub-requests fill in disjoint
// slices, and the barrier bookkeeping that decides which sub is last.
// The output buffers are written lock-free (windows are disjoint);
// the mutex orders the countdown, so the last sub's read of the
// merged output happens after every other sub's writes.
type shardParent struct {
	req  *request
	subs []*request
	out  output

	mu        sync.Mutex
	remaining int   // subs not yet executed (wall-side barrier)
	minStart  int64 // min wall-mode ExecStart across executed subs
	// Virtual-time mode settles sub-requests on the ledger, not at
	// execution, so it keeps its own countdown and stamp bounds.
	vremaining int
	vMinStart  int64
	vMaxEnd    int64
	failed     bool // parent already delivered an error (Close)
}

// subDone records one executed sub and reports whether it was the
// last (and the min execution-start stamp, for the parent's wall-mode
// decomposition).
func (sp *shardParent) subDone(start int64) (last bool, minStart int64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if start < sp.minStart {
		sp.minStart = start
	}
	sp.remaining--
	return sp.remaining == 0 && !sp.failed, sp.minStart
}

// shardEligibleLocked returns the fan-out placement set - the
// in-service, positively weighted, shard-capable workers - when the
// request can shard (see shardable), or nil.
func (s *Scheduler) shardEligibleLocked(req *request) []*worker {
	if !shardable(&req.op) {
		return nil
	}
	var parts []*worker
	for _, w := range s.workers {
		if w.inService && w.weight > 0 && w.sb != nil {
			parts = append(parts, w)
		}
	}
	if len(parts) < 2 {
		return nil
	}
	return parts
}

// tryShardLocked fans one admitted request out into kernel-group
// sub-requests: the output kernels split into residue-class windows
// at the active-group boundary, placement apportions windows to the
// routing weights (a degraded worker gets fewer kernel groups, never
// zero; a drained worker gets none by exclusion), and each sub enters
// the pending machinery pinned to its worker. Returns (future, true)
// when the fan-out was taken; (nil, false) falls through to the
// whole-request path. Called with the scheduler mutex held, after
// admission: the parent keeps the single admission slot.
func (s *Scheduler) tryShardLocked(req *request) (*Future, bool) {
	parts := s.shardEligibleLocked(req)
	if parts == nil {
		return nil, false
	}
	var of int64
	weights := make([]int64, len(parts))
	for i, w := range parts {
		weights[i] = w.weight
		if w.shardGroups > of {
			of = w.shardGroups
		}
	}
	if of < 1 {
		return nil, false
	}
	windows := core.PartitionShards(int(of), weights)
	// Fewer residue classes than workers can leave zero-count windows;
	// a fan-out needs at least two real subs to beat the whole path.
	placed := parts[:0]
	wins := windows[:0]
	for i, w := range parts {
		if windows[i].Count > 0 {
			placed = append(placed, w)
			wins = append(wins, windows[i])
		}
	}
	if len(placed) < 2 {
		return nil, false
	}
	sp := &shardParent{req: req, out: newOutput(&req.op), minStart: math.MaxInt64, vMinStart: math.MaxInt64}
	// The parent carries sp too (for Close-time failure); it
	// is never enqueued or ledger-booked itself, so the sub-only paths
	// that test req.sp never see it.
	req.sp = sp
	// The fan-out decision is the parent's dispatch point: it never
	// lingers, its subs do.
	req.st.Dispatch = req.st.Arrive
	for i, w := range placed {
		win := wins[i]
		sub := &request{
			op: req.op,
			// Background context: a sub never skips execution on the
			// caller's cancellation (see runOne) and never waits.
			ctx:   context.Background(),
			jseq:  -1,
			shard: win,
			sp:    sp,
		}
		sub.st.Arrive = req.st.Arrive
		sp.subs = append(sp.subs, sub)
		s.enqueueLocked(keyOf(&req.op, win, w.id), sub)
	}
	sp.remaining = len(sp.subs)
	sp.vremaining = len(sp.subs)
	s.shardFanouts.Inc()
	if s.trace != nil {
		s.span.Event(obs.RequestSharded, opName(req),
			obs.Int("subs", int64(len(sp.subs))),
			obs.Int("of", of),
			obs.Int("journal_seq", req.jseq))
	}
	s.flushLocked(false)
	return &Future{req: req}, true
}

// runShard executes one kernel-group sub-request on its worker and,
// when it completes the merge, delivers the parent. The KindShard
// record is emitted here on the worker goroutine - not at dispatch -
// so the journal order of one worker's records (shards and delivers
// alike) is that worker's execution order, the property replay needs
// to reproduce per-chip noise and drift state. last marks the sub
// that ends w's item (see runOne).
func (s *Scheduler) runShard(w *worker, req *request, last bool) int {
	sp := req.sp
	pjseq := sp.req.jseq
	if j := s.opt.Journal; j != nil && pjseq >= 0 {
		j.Record(journal.KindShard, journal.Encode(journal.ShardRec{
			Admit:  uint64(pjseq),
			Worker: int64(w.id),
			Pos:    int64(req.shard.Pos),
			Count:  int64(req.shard.Count),
			Of:     int64(req.shard.Of),
		}))
	}
	start := s.ticks.Load()
	if !s.opt.VirtualTime {
		req.st.ExecStart = start
	}
	runWindow(w.sb, &req.op, req.shard, sp.out)
	w.requests.Inc()
	s.shardSubs.Inc()
	if !s.opt.VirtualTime {
		end := s.ticks.Load()
		req.st.ExecEnd = end
		req.st.Deliver = end
		req.final.Store(true)
	}
	s.finishItem(w, last)
	if merged, minStart := sp.subDone(start); merged {
		s.complete(sp.req, -1, minStart, sp.out)
	}
	return 1
}

// failShard fails a sharded request's parent exactly once: delivery
// and the slot release happen here, and any subs still executing find
// failed set and never deliver.
func (s *Scheduler) failShard(sp *shardParent, err error) {
	sp.mu.Lock()
	if sp.failed {
		sp.mu.Unlock()
		return
	}
	sp.failed = true
	sp.mu.Unlock()
	s.deliver(sp.req, result{err: err})
	s.releaseSlot()
}
