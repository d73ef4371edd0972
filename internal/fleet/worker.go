package fleet

import (
	"runtime"
	"strconv"
	"sync/atomic"

	"albireo/internal/core"
	"albireo/internal/health"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/obs"
)

// workItem is one unit of work on a worker queue: a batch of requests
// to execute, a single directly dispatched request (submit's direct
// path, which skips the batch slice), or a BIST re-probe.
type workItem struct {
	batch  []*request
	single *request
	probe  bool
}

// worker is one pool member plus its routing state. Routing state
// (inService, weight, assigned, probePending) is guarded by the
// scheduler mutex; the goroutine owns backend execution. In wall mode
// busy counts dispatched but unfinished batches and singles: dispatch
// adds under the mutex, the goroutine subtracts without it. Probes are
// not counted: they run only on drained workers, which get no routed
// work. VirtualTime mode reads the ledger (vBusyUntil) instead.
type worker struct {
	id      int
	backend inference.Backend
	chip    *core.Chip
	eng     *health.Engine
	queue   chan workItem

	// sb executes the worker's kernel-group sub-requests (see
	// shardBackend); nil keeps the worker out of shard fan-outs.
	sb ShardBackend

	inService    bool
	weight       int64 // healthy PLCU count (1 for chipless workers)
	assigned     int64 // batches routed here, for deficit round-robin
	vBusyUntil   int64 // virtual-time tick the worker is booked until
	shardGroups  int64 // cached chip.ActiveGroups() (Ng for chipless)
	probePending bool
	degraded     bool // cached chip.Degraded(); the chip itself is
	// only touched by its owning goroutine
	report health.Report
	busy   atomic.Int64

	batches    *obs.Counter
	requests   *obs.Counter
	inServiceG *obs.Gauge
	weightG    *obs.Gauge
}

// instrument resolves the worker's per-id instruments.
func (w *worker) instrument(reg *obs.Registry, trace *obs.Trace) {
	label := obs.L("worker", strconv.Itoa(w.id))
	w.batches = reg.Counter(MetricBatches, label)
	w.requests = reg.Counter(MetricRequests, label)
	w.inServiceG = reg.Gauge(MetricWorkerInService, label)
	w.weightG = reg.Gauge(MetricWorkerWeight, label)
	if w.eng != nil {
		w.eng.Instrument(reg, trace)
	}
}

// syncGauges publishes the worker's routing state.
func (w *worker) syncGauges() {
	v := 0.0
	if w.inService {
		v = 1
	}
	w.inServiceG.Set(v)
	w.weightG.Set(float64(w.weight))
}

// healthyUnits counts the PLCUs still in service on the worker's chip.
func (w *worker) healthyUnits() int64 {
	if w.chip == nil {
		return 1
	}
	cfg := w.chip.Config()
	return int64(cfg.Ng*cfg.Nu - len(w.chip.Quarantined()))
}

// serveWorker is the worker goroutine: it drains the queue until Close
// closes it, executing batches and probes in dispatch order. A worker
// turns idle before it delivers the last result of an item, so a
// caller that waits on that result and submits again finds it idle.
// In wall mode a worker that turns idle while batches are pending
// pulls them at once instead of leaving them to the next Tick; the
// pending count is read before the mutex is taken, so completion
// stays lock-free while nothing is pending. (Dispatch publishes the
// count before it reads busy, and the worker clears busy before it
// reads the count, so one of them always sees the other.)
//
// The worker yields before each item. A closed-loop caller and its
// worker wake each other in turn, and the Go runtime runs a goroutine
// that the running one wakes next, in the same time slice; without
// the yield, goroutines woken behind them - the journal writer an
// admission woke, above all - wait out the 10 ms preemption slice, and
// the admitted payloads stay queued on the heap meanwhile.
func (s *Scheduler) serveWorker(w *worker) {
	defer s.wg.Done()
	for item := range w.queue {
		runtime.Gosched()
		switch {
		case item.probe:
			s.runProbe(w)
			continue
		case item.single != nil:
			s.runSingle(w, item.single)
		default:
			s.runBatch(w, item.batch)
		}
		if !s.opt.VirtualTime && s.npending.Load() > 0 && w.busy.Load() == 0 {
			s.mu.Lock()
			s.flushLocked(false)
			s.mu.Unlock()
		}
	}
}

// runBatch executes a dispatched batch request by request. Requests
// whose context ended while queued are skipped and delivered their
// context error; the rest run back to back on the backend - the
// amortization the batchKey compatibility rule exists to enable.
func (s *Scheduler) runBatch(w *worker, batch []*request) {
	if s.trace == nil {
		for i, req := range batch {
			s.runOne(w, req, i == len(batch)-1)
		}
		return
	}
	sp := s.span.StartSpan("fleet/execute",
		obs.Int("worker", int64(w.id)),
		obs.Int("size", int64(len(batch))))
	executed := 0
	for i, req := range batch {
		executed += s.runOne(w, req, i == len(batch)-1)
	}
	sp.End(obs.Int("executed", int64(executed)))
}

// runSingle executes a directly dispatched request. The instrumented
// path wraps it in a one-element batch so execute spans keep a single
// shape; uninstrumented, the wrapper slice is skipped too.
func (s *Scheduler) runSingle(w *worker, req *request) {
	if s.trace == nil {
		s.runOne(w, req, true)
		return
	}
	s.runBatch(w, []*request{req})
}

// runOne executes one request and delivers its result, entirely
// lock-free: the counters are atomic and in wall-time mode the worker
// releases the queue slot without the scheduler mutex, so workers
// never serialize on completing work. In VirtualTime mode the stage
// stamps and the slot release belong to the ledger, so the worker only
// executes and delivers. last marks the item's final request: w turns
// idle before delivering it. Returns 1 if the backend ran the request,
// 0 if it was skipped as canceled.
func (s *Scheduler) runOne(w *worker, req *request, last bool) int {
	// Kernel-group sub-requests take the shard path: no cancellation
	// check (a partially executed merge would leave the chips' noise
	// state trace-dependent on wall timing; the parent's Future handles
	// the caller's context) and no per-sub delivery.
	if req.sp != nil {
		return s.runShard(w, req, last)
	}
	if err := req.ctx.Err(); err != nil {
		s.canceled.Inc()
		if j := s.opt.Journal; j != nil && req.jseq >= 0 {
			j.Record(journal.KindCancel, journal.Encode(journal.Cancel{Admit: uint64(req.jseq)}))
		}
		s.finishItem(w, last)
		s.deliver(req, result{err: err})
		if !s.opt.VirtualTime {
			s.releaseSlot()
		}
		return 0
	}
	start := s.ticks.Load()
	out := runWhole(w.backend, &req.op)
	w.requests.Inc()
	s.finishItem(w, last)
	s.complete(req, int64(w.id), start, out)
	return 1
}

// finishItem turns w idle in wall mode once it has run the last
// request of its item (last), before that request is delivered.
func (s *Scheduler) finishItem(w *worker, last bool) {
	if last && !s.opt.VirtualTime {
		w.busy.Add(-1)
	}
}

// complete journals and delivers a finished request's output. worker
// is the pool index that produced it, or -1 for a sharded request's
// merge (replay recomputes that hash from its own merge buffer), and
// start is its wall-mode execution start. The deliver record pins which worker produced which output bits: hashing
// the output is the only journal work on the execution path, and it
// happens only when the request was journaled.
func (s *Scheduler) complete(req *request, worker, start int64, out output) {
	s.completed.Inc()
	if j := s.opt.Journal; j != nil && req.jseq >= 0 {
		j.Record(journal.KindDeliver, journal.Encode(journal.Deliver{
			Admit:  uint64(req.jseq),
			Worker: worker,
			Hash:   out.hash(),
		}))
	}
	if !s.opt.VirtualTime {
		end := s.ticks.Load()
		req.st.ExecStart = start
		req.st.ExecEnd = end
		req.st.Deliver = end
		req.final.Store(true)
		s.recordStages(req.st)
		if s.trace != nil && s.opt.Journal != nil {
			s.span.Event(obs.RequestCompleted, opName(req),
				obs.Int("worker", worker),
				obs.Int("journal_seq", req.jseq))
		}
	}
	s.deliver(req, result{output: out})
	if !s.opt.VirtualTime {
		s.releaseSlot()
	}
}

// runProbe re-scans a drained worker's chip and applies the verdict.
// Quarantine is cleared first so the scan sees every unit: a fault
// that has decayed away (thermal drift settling) is re-admitted, a
// persistent one is re-quarantined by applyReportLocked.
func (s *Scheduler) runProbe(w *worker) {
	w.chip.ClearQuarantine()
	rep := w.eng.Scan()
	s.mu.Lock()
	w.probePending = false
	s.applyReportLocked(w, rep, true)
	// A restored worker may unblock batches stranded with no route.
	s.flushLocked(false)
	s.mu.Unlock()
}

// applyReportLocked turns a BIST report into a routing decision:
// healthy workers serve at full weight; faulty units are quarantined
// on the chip, and the worker is drained unless KeepDegraded keeps it
// serving at reduced weight. Transitions emit drain/restore events
// and journal records; probe distinguishes a runtime re-probe scan
// (which replay must re-execute to reproduce chip state) from the
// startup scan (which replay performs unconditionally).
func (s *Scheduler) applyReportLocked(w *worker, rep health.Report, probe bool) {
	w.report = rep
	wasInService := w.inService
	inService := true
	if !rep.Healthy() {
		if _, err := w.eng.QuarantineFindings(rep); err != nil || !s.opt.KeepDegraded {
			inService = false
		}
	}
	w.weight = w.healthyUnits()
	if w.weight <= 0 {
		inService = false
	}
	w.inService = inService
	w.degraded = w.chip != nil && w.chip.Degraded()
	if w.chip != nil {
		// Safe chip access: Start scans before the goroutines launch and
		// runProbe runs on the owning goroutine (same rule as Degraded).
		w.shardGroups = int64(w.chip.ActiveGroups())
	}
	switch {
	case wasInService && !inService:
		s.drains.Inc()
		s.journalTransition(journal.KindDrain, w, len(rep.Findings), probe)
		s.span.Event(obs.WorkerDrained, "worker "+strconv.Itoa(w.id),
			obs.Int("worker", int64(w.id)),
			obs.Int("findings", int64(len(rep.Findings))))
	case !wasInService && inService && s.started:
		s.restores.Inc()
		s.journalTransition(journal.KindRestore, w, 0, probe)
		s.span.Event(obs.WorkerRestored, "worker "+strconv.Itoa(w.id),
			obs.Int("worker", int64(w.id)))
		// Rejoin at the pool's current backlog level so the fresh
		// worker is not flooded with every subsequent batch.
		w.assigned = s.maxAssignedLocked()
	}
	w.syncGauges()
}

// journalTransition records one drain/restore on the journal.
func (s *Scheduler) journalTransition(kind journal.Kind, w *worker, findings int, probe bool) {
	if j := s.opt.Journal; j != nil {
		j.Record(kind, journal.Encode(journal.Transition{
			Worker:   int64(w.id),
			Findings: int64(findings),
			Probe:    probe,
		}))
	}
}

// maxAssignedLocked returns the largest assigned count among
// in-service workers (0 when none).
func (s *Scheduler) maxAssignedLocked() int64 {
	var max int64
	for _, w := range s.workers {
		if w.inService && w.assigned > max {
			max = w.assigned
		}
	}
	return max
}

// WorkerInfo is one worker's externally visible state.
type WorkerInfo struct {
	// Worker is the pool index.
	Worker int `json:"worker"`
	// InService reports routing eligibility.
	InService bool `json:"in_service"`
	// Weight is the routing weight (healthy PLCU count).
	Weight int64 `json:"weight"`
	// Degraded mirrors the chip's quarantine state (false for
	// chipless workers).
	Degraded bool `json:"degraded"`
	// Report is the last BIST report (zero if never probed).
	Report health.Report `json:"report"`
}

// Info snapshots per-worker state for serving endpoints.
func (s *Scheduler) Info() []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerInfo, len(s.workers))
	for i, w := range s.workers {
		out[i] = WorkerInfo{
			Worker:    w.id,
			InService: w.inService,
			Weight:    w.weight,
			Degraded:  w.degraded,
			Report:    w.report,
		}
	}
	return out
}

// Degraded reports whether any worker is drained or serving on a
// degraded chip.
func (s *Scheduler) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.workers {
		if !w.inService || w.degraded {
			return true
		}
	}
	return false
}
