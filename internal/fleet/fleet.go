// Package fleet is the multi-chip serving subsystem: it owns a pool
// of analog chips (each wrapped in an inference.Backend) and schedules
// inference work onto them. The paper's throughput story is a
// utilization argument - Table 7's comparison against DEAP-CNN and
// HolyLight hinges on keeping many photonic units busy at once - and
// this package makes that utilization a first-class, measurable
// quantity: compatible layer requests coalesce into micro-batches that
// amortize MZM weight programming, a bounded admission queue sheds
// load explicitly instead of collapsing, and routing consumes BIST
// health reports so a faulty chip is drained from the pool while the
// rest keep serving.
//
// Dispatch is work-conserving (the adaptive batching rule of Clipper,
// Crankshaw et al., NSDI 2017): a partial batch lingers only while
// every eligible worker is busy, which is when waiting for company can
// save weight programming.
//
// Determinism contract. The scheduler never reads a wall clock: linger
// is denominated in ticks of an injected logical clock (Tick is called
// by the cmd boundary on a wall timer in production and directly by
// tests), and routing is deterministic: the eligible worker that frees
// up first, ties by weighted round-robin. In VirtualTime mode a
// worker's idleness is its booked service, so batching, latency stamps
// and shedding are a pure function of the request trace (the sequence
// of Submit and Tick calls). In wall-time mode idleness is completion
// progress, so batch composition depends on when work completes: a
// closed-loop trace (each call waits on its result before the next
// Submit or Tick) is reproducible, because a worker turns idle before
// it delivers, but concurrent submitters or ticks racing execution are
// not; replay is unaffected, because every deliver record names the
// worker. A reproducible trace yields bit-identical results and
// registry snapshots across runs, and because a drained worker is
// never driven, results are bit-identical to a healthy pool built from
// the surviving workers only. Cancellation (ctx deadlines) is the one
// wall-driven escape hatch and is excluded from the invariant.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"albireo/internal/core"
	"albireo/internal/health"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// Metric names emitted by the fleet scheduler.
const (
	// MetricQueueDepth gauges admitted-but-unfinished requests.
	MetricQueueDepth = "albireo_fleet_queue_depth"
	// MetricBatchSize is the histogram of dispatched batch sizes.
	MetricBatchSize = "albireo_fleet_batch_size"
	// MetricAdmitted counts requests accepted into the queue.
	MetricAdmitted = "albireo_fleet_admitted_total"
	// MetricShed counts requests refused with ErrOverloaded.
	MetricShed = "albireo_fleet_shed_total"
	// MetricCompleted counts requests executed to completion.
	MetricCompleted = "albireo_fleet_completed_total"
	// MetricCanceled counts requests dropped by their context before a
	// worker executed them.
	MetricCanceled = "albireo_fleet_canceled_total"
	// MetricBatches counts batches dispatched per worker (label worker).
	MetricBatches = "albireo_fleet_batches_total"
	// MetricRequests counts requests executed per worker (label worker).
	MetricRequests = "albireo_fleet_requests_total"
	// MetricTicks counts linger-clock ticks.
	MetricTicks = "albireo_fleet_ticks_total"
	// MetricDrains counts workers taken out of service by a probe.
	MetricDrains = "albireo_fleet_worker_drains_total"
	// MetricRestores counts drained workers returned to service.
	MetricRestores = "albireo_fleet_worker_restores_total"
	// MetricReprobes counts re-probe scans scheduled on drained workers.
	MetricReprobes = "albireo_fleet_reprobes_total"
	// MetricWorkerInService gauges routing eligibility per worker
	// (label worker; 1 in service, 0 drained).
	MetricWorkerInService = "albireo_fleet_worker_in_service"
	// MetricWorkerWeight gauges routing weight per worker (label
	// worker; healthy PLCU count for chip-backed workers).
	MetricWorkerWeight = "albireo_fleet_worker_weight"
	// MetricShardFanouts counts requests fanned out into kernel-group
	// sub-requests across the pool.
	MetricShardFanouts = "albireo_fleet_shard_fanouts_total"
	// MetricShardSubs counts kernel-group sub-requests executed.
	MetricShardSubs = "albireo_fleet_shard_subs_total"
)

// Typed admission errors. Submissions also fail with the caller's
// context error when the deadline expires first.
var (
	// ErrOverloaded is returned when the admission queue is full: the
	// fleet sheds the request instead of queueing unboundedly.
	ErrOverloaded = errors.New("fleet: overloaded, admission queue full")
	// ErrClosed is returned for submissions after Close (or before
	// Start).
	ErrClosed = errors.New("fleet: scheduler closed")
)

// BatchSizeBuckets is the bucket ladder for the batch-size histogram.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// Options tunes the scheduler. The zero value of each field falls back
// to the stated default.
type Options struct {
	// MaxBatch caps a micro-batch: a pending batch that reaches this
	// size is dispatched immediately (default 8).
	MaxBatch int
	// MaxLinger is how many Tick calls a partial batch may wait for
	// more compatible requests before being dispatched anyway. A batch
	// lingers only while every eligible worker is busy (for a shard
	// sub, its pinned worker): an idle worker takes it at once. 0 means
	// no lingering: every request dispatches on submission, to the
	// routing pick whether or not it is busy.
	MaxLinger int
	// QueueDepth bounds admitted-but-unfinished requests; submissions
	// past it are shed with ErrOverloaded (default 64).
	QueueDepth int
	// ReprobeEvery re-scans drained workers every this many ticks so a
	// recovered chip returns to service automatically. 0 disables
	// re-probing.
	ReprobeEvery int
	// KeepDegraded keeps a worker whose BIST scan found faults in
	// service - its faulty units quarantined and its routing weight
	// reduced to the surviving PLCU count - instead of draining it.
	// The default (false) drains the whole worker on any finding.
	KeepDegraded bool
	// Shard fans eligible requests (dense convolutions, fully-connected
	// layers, and GEMM-family products) out across the in-service pool
	// as kernel-group sub-requests: each worker programs and executes
	// only its residue-class window of the output kernels, and the
	// scheduler merges the disjoint slices into one output. Sharding
	// engages only when at least two shard-capable workers (chip-backed,
	// or a backend implementing ShardBackend) are in service; otherwise
	// requests take the whole-request path unchanged.
	Shard bool
	// VirtualTime prices execution with ServiceModel in linger ticks
	// instead of observing wall progress: dispatched batches are
	// booked on a completion ledger that Tick settles, and admission
	// slots release at virtual - not real - completion. Every latency
	// stamp and every shedding decision then depends only on the
	// request trace, which is what lets the open-loop load harness
	// (internal/load) emit byte-identical reports from a seed. Real
	// backends still execute and deliver real results.
	VirtualTime bool
	// ServiceModel prices batches in VirtualTime mode (zero value:
	// ProgramTicks 2, RequestTicks 1). Ignored otherwise.
	ServiceModel ServiceModel
	// Journal, when non-nil, records every admission, shed, delivery,
	// cancellation, and worker drain/restore transition onto the
	// hash-chained request journal. All hooks are asynchronous and
	// non-blocking (Async never waits on I/O), so journaling stays off
	// the inference hot path; with Journal nil the scheduler pays one
	// nil check per hook site.
	Journal *journal.Async
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxLinger < 0 {
		o.MaxLinger = 0
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.VirtualTime {
		o.ServiceModel = o.ServiceModel.withDefaults()
	}
	return o
}

// Unit is one pool member: the backend that executes layer ops and,
// optionally, the chip behind it for BIST probing. A Unit with a nil
// Chip is never probed and stays in service at weight 1.
type Unit struct {
	Backend inference.Backend
	Chip    *core.Chip
}

// request is one admitted layer op waiting for a worker.
type request struct {
	op   journal.Request
	ctx  context.Context
	done chan result // buffered 1: delivery never blocks a worker

	// jseq is the request's journal sequence number: its KindAdmit
	// record's position in the chain, or -1 when journaling is off (or
	// the journal refused the record). Assigned under the scheduler
	// mutex at admission, read by the owning worker and by Future
	// accessors after delivery.
	jseq int64

	// shard is the kernel-group window a sub-request owns (zero for
	// whole requests) and sp links it to its parent's merge state. A
	// request with non-nil sp never delivers on its own done channel:
	// the last finishing sub delivers the merged result to sp.req.
	shard core.ShardSpec
	sp    *shardParent

	// st is the latency decomposition; final flips (with release
	// semantics, after the last stamp) when st stops changing, so
	// Future.Stages can read it race-free from any goroutine.
	st    StageTicks
	final atomic.Bool
}

// result is the outcome delivered back to the submitter.
type result struct {
	output
	err error
}

// batchKey identifies coalescible requests: the same weight tensor,
// geometry, and activation - exactly the work whose MZM programming a
// worker can amortize by running the inputs back to back. GEMM-family
// requests coalesce on the same B matrix (the programmed operand): the
// chip's weight-program cache is keyed on it, so back-to-back GEMMs
// against one B skip recompilation exactly like a conv batch skips MZM
// reprogramming.
type batchKey struct {
	op   journal.Op
	w    *tensor.Kernels
	cfg  tensor.ConvConfig
	relu bool
	mb   *tensor.Matrix
	// shard and aff separate kernel-group sub-requests from whole
	// requests: subs coalesce only with subs owning the same window and
	// pinned to the same worker (aff is the placement worker id; -1 for
	// whole requests, which route by deficit round-robin).
	shard core.ShardSpec
	aff   int
}

// keyOf is the batch key of an op run as the given window on the
// given worker (the zero window and aff -1 for whole requests).
func keyOf(op *journal.Request, shard core.ShardSpec, aff int) batchKey {
	return batchKey{op: op.Op, w: op.W, cfg: op.Cfg, relu: op.ReLU, mb: op.MB, shard: shard, aff: aff}
}

// pendingBatch accumulates compatible requests until it fills, its
// linger expires, or an eligible worker turns idle.
type pendingBatch struct {
	key  batchKey
	reqs []*request
	age  int // ticks spent waiting
}

// Scheduler owns the worker pool, the micro-batcher, and the admission
// queue. Build with New, optionally Instrument, then Start.
type Scheduler struct {
	opt Options

	mu      sync.Mutex
	workers []*worker
	pending []*pendingBatch
	byKey   map[batchKey]*pendingBatch
	// npending mirrors len(pending) (written under mu) so a worker
	// that turns idle takes mu to pull pending batches only when there
	// are some; completion stays lock-free otherwise.
	npending atomic.Int64
	// queued counts admitted-but-unfinished requests. It is atomic so
	// workers can release queue slots on completion without taking the
	// scheduler mutex - on a busy pool the per-request completion lock
	// was the serialization point that kept added chips from adding
	// throughput. Admission still checks it under mu, so the depth
	// bound and the queue-capacity invariant are unchanged.
	queued atomic.Int64
	// ticks is written under mu (Tick) but read atomically by worker
	// goroutines stamping wall-mode execution stages.
	ticks   atomic.Int64
	started bool
	closed  bool
	wg      sync.WaitGroup

	// ledger is the virtual-time completion min-heap (VirtualTime
	// mode only), guarded by mu; ledgerSeq breaks completion ties in
	// booking order.
	ledger    []*ledgerEntry
	ledgerSeq int64

	reg   *obs.Registry
	trace *obs.Trace
	span  *obs.Span

	depth        *obs.Gauge
	batchSize    *obs.Histogram
	admitted     *obs.Counter
	shed         *obs.Counter
	completed    *obs.Counter
	canceled     *obs.Counter
	ticksC       *obs.Counter
	drains       *obs.Counter
	restores     *obs.Counter
	reprobes     *obs.Counter
	latE2E       *obs.Histogram
	latLinger    *obs.Histogram
	latWait      *obs.Histogram
	latExec      *obs.Histogram
	latDeliver   *obs.Histogram
	shardFanouts *obs.Counter
	shardSubs    *obs.Counter
}

// New builds a scheduler over the given pool members. At least one
// unit with a non-nil Backend is required.
func New(opt Options, units ...Unit) (*Scheduler, error) {
	if len(units) == 0 {
		return nil, errors.New("fleet: need at least one unit")
	}
	s := &Scheduler{
		opt:   opt.withDefaults(),
		byKey: make(map[batchKey]*pendingBatch),
	}
	for i, u := range units {
		if u.Backend == nil {
			return nil, fmt.Errorf("fleet: unit %d has no backend", i)
		}
		w := &worker{
			id:      i,
			backend: u.Backend,
			chip:    u.Chip,
			sb:      shardBackend(u),
			// Capacity bounds worst-case occupancy: every admitted
			// request in its own batch plus one outstanding probe, so a
			// dispatch under the scheduler lock never blocks.
			queue: make(chan workItem, s.opt.QueueDepth+1),
			// Chipless workers shard at the architectural group count;
			// chip-backed workers refresh this from the chip's active
			// group count at every scan (applyReportLocked).
			shardGroups: int64(core.DefaultConfig().Ng),
		}
		if u.Chip != nil {
			w.eng = health.New(u.Chip, health.Options{})
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// Instrument attaches an observability registry and/or trace (either
// may be nil) and returns the scheduler for chaining. Call before
// Start so the startup BIST scans are counted.
func (s *Scheduler) Instrument(reg *obs.Registry, trace *obs.Trace) *Scheduler {
	s.reg = reg
	s.trace = trace
	s.depth = reg.Gauge(MetricQueueDepth)
	s.batchSize = reg.Histogram(MetricBatchSize, BatchSizeBuckets)
	s.admitted = reg.Counter(MetricAdmitted)
	s.shed = reg.Counter(MetricShed)
	s.completed = reg.Counter(MetricCompleted)
	s.canceled = reg.Counter(MetricCanceled)
	s.ticksC = reg.Counter(MetricTicks)
	s.drains = reg.Counter(MetricDrains)
	s.restores = reg.Counter(MetricRestores)
	s.reprobes = reg.Counter(MetricReprobes)
	s.latE2E = reg.Histogram(MetricLatencyE2E, obs.LatencyBuckets)
	s.latLinger = reg.Histogram(MetricLatencyLinger, obs.LatencyBuckets)
	s.latWait = reg.Histogram(MetricLatencyQueueWait, obs.LatencyBuckets)
	s.latExec = reg.Histogram(MetricLatencyExecute, obs.LatencyBuckets)
	s.latDeliver = reg.Histogram(MetricLatencyDelivery, obs.LatencyBuckets)
	s.shardFanouts = reg.Counter(MetricShardFanouts)
	s.shardSubs = reg.Counter(MetricShardSubs)
	for _, w := range s.workers {
		w.instrument(reg, trace)
	}
	return s
}

// Start runs a BIST scan over every chip-backed worker, applies the
// drain/weight policy to the findings, and launches the worker
// goroutines. It fails if the scans leave no worker in service.
func (s *Scheduler) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return ErrClosed
	}
	s.span = s.trace.StartSpan("fleet/serve", obs.Int("pool", int64(len(s.workers))))
	for _, w := range s.workers {
		// Presumed in service until the scan says otherwise, so a
		// startup drain registers as a drain transition.
		w.inService = true
		if w.eng == nil {
			w.weight = 1
			w.syncGauges()
			continue
		}
		s.applyReportLocked(w, w.eng.Scan(), false)
	}
	if len(s.inServiceLocked()) == 0 {
		s.span.End(obs.String("error", "no in-service workers"))
		return errors.New("fleet: startup BIST left no worker in service")
	}
	s.started = true
	for _, w := range s.workers {
		s.wg.Add(1)
		go s.serveWorker(w)
	}
	return nil
}

// Tick advances the linger clock by one tick: pending batches age,
// and in VirtualTime mode booked batches whose virtual completion is
// due settle off the ledger; then batches that reached MaxLinger, or
// whose worker is now idle, dispatch. Every
// ReprobeEvery ticks, drained workers are scheduled for a BIST
// re-probe. In production a wall timer at the cmd boundary calls Tick;
// tests call it directly, which is what keeps batching deterministic.
func (s *Scheduler) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed {
		return
	}
	now := s.ticks.Add(1)
	s.ticksC.Inc()
	for _, pb := range s.pending {
		pb.age++
	}
	s.settleLedgerLocked(now, false)
	s.flushLocked(false)
	if s.opt.ReprobeEvery > 0 && now%int64(s.opt.ReprobeEvery) == 0 {
		for _, w := range s.workers {
			if !w.inService && w.eng != nil && !w.probePending {
				w.probePending = true
				s.reprobes.Inc()
				w.queue <- workItem{probe: true}
			}
		}
	}
}

// Ticks returns the logical time in ticks.
func (s *Scheduler) Ticks() int64 {
	return s.ticks.Load()
}

// ConvAsync submits a convolution without waiting. Submission order is
// batch order: calls from one goroutine coalesce deterministically.
func (s *Scheduler) ConvAsync(ctx context.Context, a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *Future {
	return s.submit(ctx, &request{op: journal.Request{Op: journal.OpConv, ReLU: relu, Cfg: cfg, A: a, W: w}, ctx: ctx})
}

// FullyConnectedAsync submits a classifier layer without waiting.
func (s *Scheduler) FullyConnectedAsync(ctx context.Context, a *tensor.Volume, w *tensor.Kernels, relu bool) *Future {
	return s.submit(ctx, &request{op: journal.Request{Op: journal.OpFC, ReLU: relu, A: a, W: w}, ctx: ctx})
}

// GEMMAsync submits a dense matrix product without waiting.
func (s *Scheduler) GEMMAsync(ctx context.Context, a, b *tensor.Matrix, relu bool) *Future {
	return s.GEMMAsyncOp(ctx, journal.OpGEMM, a, b, relu)
}

// GEMMAsyncOp submits a matrix product carrying a workload op tag
// (OpGEMM, OpLSTM, or OpAttention) so the journal and the trace record
// which workload issued it. Non-GEMM-family tags fail admission.
func (s *Scheduler) GEMMAsyncOp(ctx context.Context, op journal.Op, a, b *tensor.Matrix, relu bool) *Future {
	if !op.GEMMFamily() {
		return &Future{err: fmt.Errorf("fleet: op %v is not a GEMM-family op", op)}
	}
	return s.submit(ctx, &request{op: journal.Request{Op: op, ReLU: relu, MA: a, MB: b}, ctx: ctx})
}

// submit runs admission control and batching for one request.
func (s *Scheduler) submit(ctx context.Context, req *request) *Future {
	if err := ctx.Err(); err != nil {
		return &Future{err: err}
	}
	req.jseq = -1
	// The journal payload (which scales with tensor size) is encoded
	// outside the scheduler lock; only the bounded-channel enqueue
	// happens under it, so admission order and journal order agree
	// without serializing admissions on the encoder.
	var jpayload []byte
	if j := s.opt.Journal; j != nil && !j.Degraded() {
		jpayload = journal.EncodeRequest(&req.op)
	}
	req.done = make(chan result, 1)
	s.mu.Lock()
	if !s.started || s.closed {
		s.mu.Unlock()
		return &Future{err: ErrClosed}
	}
	if s.queued.Load() >= int64(s.opt.QueueDepth) {
		s.shed.Inc()
		if j := s.opt.Journal; j != nil {
			j.Record(journal.KindShed, journal.EncodeShed(journal.Shed{
				Op: req.op.Op, Queued: s.queued.Load(),
			}))
		}
		if s.trace != nil {
			s.span.Event(obs.RequestShed, opName(req), obs.Int("queued", s.queued.Load()))
		}
		s.mu.Unlock()
		return &Future{err: ErrOverloaded}
	}
	s.queued.Add(1)
	s.depth.Add(1)
	s.admitted.Inc()
	if jpayload != nil {
		req.jseq = s.opt.Journal.Admit(jpayload)
	}
	req.st.Arrive = s.ticks.Load()
	// Shard fan-out: an eligible request splits into kernel-group
	// sub-requests across the in-service pool instead of dispatching
	// whole. The parent keeps its single admission slot; the subs ride
	// the normal pending/dispatch machinery below.
	if s.opt.Shard {
		if fut, ok := s.tryShardLocked(req); ok {
			s.mu.Unlock()
			return fut
		}
	}
	// Direct path: with nothing pending (no older request is waiting
	// for a route, so FIFO order holds) and a worker that can take the
	// request now - any in-service worker when lingering is off, an
	// idle one otherwise - the request is its own batch: route it
	// directly and skip the coalescing map, the pendingBatch, and the
	// one-element batch slice.
	if len(s.pending) == 0 {
		if w := s.pickWorkerLocked(false); w != nil && (s.opt.MaxLinger == 0 || s.backlogLocked(w) == 0) {
			s.dispatchLocked(w, workItem{single: req}, 0)
			s.mu.Unlock()
			return &Future{req: req}
		}
	}
	s.enqueueLocked(keyOf(&req.op, core.ShardSpec{}, -1), req)
	s.flushLocked(false)
	s.mu.Unlock()
	return &Future{req: req}
}

// enqueueLocked appends req to the pending batch for key, opening one
// when none is waiting.
func (s *Scheduler) enqueueLocked(key batchKey, req *request) {
	pb := s.byKey[key]
	if pb == nil {
		pb = &pendingBatch{key: key}
		s.byKey[key] = pb
		s.pending = append(s.pending, pb)
	}
	pb.reqs = append(pb.reqs, req)
	s.npending.Store(int64(len(s.pending)))
}

// flushLocked dispatches every pending batch that is due. A batch is
// due when an eligible worker for its key is idle (lingering then
// buys nothing), when it is full, when it has lingered MaxLinger
// ticks, or on force (shutdown); it goes to the worker routeLocked
// picks, which is idle whenever an eligible one is. Batches stay
// pending when no worker is in service; they are retried on the next
// tick, idle worker, or restore.
func (s *Scheduler) flushLocked(force bool) {
	kept := s.pending[:0]
	for _, pb := range s.pending {
		w := s.routeLocked(pb)
		due := w != nil && (force || len(pb.reqs) >= s.opt.MaxBatch ||
			pb.age >= s.opt.MaxLinger || s.backlogLocked(w) == 0)
		if !due {
			kept = append(kept, pb)
			continue
		}
		s.dispatchLocked(w, workItem{batch: pb.reqs}, pb.age)
		delete(s.byKey, pb.key)
	}
	// Clear the vacated tail so dispatched batches do not stay reachable
	// from the backing array.
	clear(s.pending[len(kept):])
	s.pending = kept
	s.npending.Store(int64(len(kept)))
}

// dispatchLocked hands one routed item - a pending batch, or a lone
// request on submit's direct path - to w and, in wall mode, marks w
// busy until the item finishes. age is how many ticks the item
// lingered.
func (s *Scheduler) dispatchLocked(w *worker, item workItem, age int) {
	first, n := item.single, 1
	if first == nil {
		first, n = item.batch[0], len(item.batch)
	}
	w.assigned++
	if !s.opt.VirtualTime {
		w.busy.Add(1)
	}
	s.batchSize.Observe(float64(n))
	w.batches.Inc()
	now := s.ticks.Load()
	first.st.Dispatch = now
	for _, req := range item.batch {
		req.st.Dispatch = now
	}
	if s.opt.VirtualTime {
		reqs := item.batch
		if reqs == nil {
			reqs = []*request{first}
		}
		s.bookLocked(w, reqs)
	}
	if s.trace != nil {
		s.span.Event(obs.BatchDispatched, opName(first),
			obs.Int("worker", int64(w.id)),
			obs.Int("size", int64(n)),
			obs.Int("age_ticks", int64(age)))
	}
	w.queue <- item
}

// routeLocked picks the worker for one pending batch: affinity for
// shard sub-batches, pickWorkerLocked for whole requests. When the
// pinned worker has left service, shard subs fall back to the pick
// among shard-capable workers. nil means no worker is eligible.
func (s *Scheduler) routeLocked(pb *pendingBatch) *worker {
	if pb.key.aff < 0 {
		return s.pickWorkerLocked(false)
	}
	if w := s.workers[pb.key.aff]; w.inService && w.weight > 0 {
		return w
	}
	return s.pickWorkerLocked(true)
}

// pickWorkerLocked returns the eligible in-service worker that frees
// up first - the least backlog (see backlogLocked) - with ties broken
// by deficit round-robin: the worker minimizing assigned/weight, then
// the lowest id. Integer cross-multiplication keeps the comparison
// exact and deterministic. So the pick is idle whenever an eligible
// worker is, and among idle workers it is plain deficit round-robin;
// with lingering off, backlog is ignored and every pick is. shard
// restricts the pick to shard-capable workers: the fallback route for
// a sub-request whose placement worker drained after fan-out. nil
// means no worker is eligible.
func (s *Scheduler) pickWorkerLocked(shard bool) *worker {
	var best *worker
	var bestLoad int64
	for _, w := range s.workers {
		if !w.inService || w.weight <= 0 || shard && w.sb == nil {
			continue
		}
		var load int64
		if s.opt.MaxLinger > 0 {
			load = s.backlogLocked(w)
		}
		if best == nil || load < bestLoad ||
			load == bestLoad && w.assigned*best.weight < best.assigned*w.weight {
			best, bestLoad = w, load
		}
	}
	return best
}

// backlogLocked is how far w is from idle (0 when idle). In wall mode
// it counts dispatched but unfinished items; in VirtualTime mode it is
// the booked service left past the current tick, so the ledger prices
// the same rule the wall-mode pool runs.
func (s *Scheduler) backlogLocked(w *worker) int64 {
	if s.opt.VirtualTime {
		return max(w.vBusyUntil-s.ticks.Load(), 0)
	}
	return w.busy.Load()
}

// inServiceLocked lists workers eligible for routing.
func (s *Scheduler) inServiceLocked() []*worker {
	var out []*worker
	for _, w := range s.workers {
		if w.inService {
			out = append(out, w)
		}
	}
	return out
}

// Close stops admission, dispatches every pending batch, and waits for
// the workers to drain - bounded by ctx. Requests that cannot be
// dispatched (no worker left in service) fail with ErrClosed. A nil
// error means every worker exited.
func (s *Scheduler) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.started {
		s.flushLocked(true)
	}
	// Whatever could not dispatch fails now rather than hanging. A
	// stranded shard sub fails its whole parent (once): the merge can
	// never complete, so the parent's slot releases here instead.
	for _, pb := range s.pending {
		for _, req := range pb.reqs {
			if req.sp != nil {
				s.failShard(req.sp, ErrClosed)
				continue
			}
			s.deliver(req, result{err: ErrClosed})
			s.releaseSlot()
		}
		delete(s.byKey, pb.key)
	}
	s.pending = nil
	s.npending.Store(0)
	// Booked-but-unsettled virtual completions settle now so every
	// admitted slot releases and every dispatched request finalizes.
	s.settleLedgerLocked(s.ticks.Load(), true)
	for _, w := range s.workers {
		close(w.queue)
	}
	s.span.End(obs.Int("ticks", s.ticks.Load()))
	started := s.started
	s.mu.Unlock()
	if !started {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// deliver hands a result to the submitter. It takes no lock: the done
// channel is buffered, so delivery never blocks a worker.
func (s *Scheduler) deliver(req *request, res result) {
	req.done <- res
}

// releaseSlot frees one admission-queue slot. In wall-time mode the
// worker calls it right after delivering a result; in VirtualTime mode
// the ledger calls it at virtual completion, so occupancy - and hence
// shedding - tracks the priced service time, not wall progress. It
// takes no lock: the counter and the gauge are atomic, and the gauge
// moves by increments (not absolute stores) so concurrent completions
// cannot strand a stale depth reading.
func (s *Scheduler) releaseSlot() {
	s.queued.Add(-1)
	s.depth.Add(-1)
}

// opName labels a request for trace events.
func opName(req *request) string {
	return req.op.Op.String()
}

// Future is a pending submission. Exactly one of Volume or Logits
// matches the submitted op kind.
type Future struct {
	req *request
	err error // admission failure; set instead of req
}

// wait blocks until the result arrives or the request's context ends.
func (f *Future) wait() result {
	if f.err != nil {
		return result{err: f.err}
	}
	select {
	case res := <-f.req.done:
		return res
	case <-f.req.ctx.Done():
		return result{err: f.req.ctx.Err()}
	}
}

// Volume waits for a convolution result.
func (f *Future) Volume() (*tensor.Volume, error) {
	res := f.wait()
	return res.vol, res.err
}

// Logits waits for a fully-connected result.
func (f *Future) Logits() ([]float64, error) {
	res := f.wait()
	return res.vec, res.err
}

// Matrix waits for a GEMM-family result.
func (f *Future) Matrix() (*tensor.Matrix, error) {
	res := f.wait()
	return res.mat, res.err
}

// JournalSeq returns the request's journal sequence number - its
// KindAdmit record's position in the hash chain, the correlation id
// stamped on X-Albireo-Seq responses - or -1 when journaling is off,
// the journal refused the record, or admission failed. Valid as soon
// as the Future is returned: the sequence is assigned synchronously at
// admission even though the append is asynchronous.
func (f *Future) JournalSeq() int64 {
	if f.err != nil || f.req == nil {
		return -1
	}
	return f.req.jseq
}
