package journal

import (
	"encoding/hex"
	"sync"
	"sync/atomic"

	"albireo/internal/obs"
)

// Metric names emitted by the async journal writer.
const (
	// MetricAppended counts records durably appended to the chain.
	MetricAppended = "albireo_journal_appended_total"
	// MetricBackpressure counts records refused because the writer
	// queue was full (or the journal already degraded) - the explicit
	// journal-backpressure signal. Journaling never blocks inference:
	// past this point the journal degrades instead.
	MetricBackpressure = "albireo_journal_backpressure_total"
	// MetricErrors counts append failures (I/O errors).
	MetricErrors = "albireo_journal_errors_total"
	// MetricChainHead gauges the chain head sequence number.
	MetricChainHead = "albireo_journal_chain_head_seq"
	// MetricDegraded gauges degradation: 1 once any record has been
	// dropped or an append failed (the journal is no longer a faithful
	// trace), else 0.
	MetricDegraded = "albireo_journal_degraded"
)

// DefaultQueueDepth bounds the async writer's record queue.
const DefaultQueueDepth = 256

// asyncEntry is one queued append, or a drain barrier (ack != nil).
type asyncEntry struct {
	seq     uint64
	kind    Kind
	payload []byte
	ack     chan struct{}
}

// Async decouples journal appends from the serving path: producers
// (the fleet scheduler, the HTTP front end) enqueue pre-encoded
// records onto a bounded channel, a dedicated goroutine writes them in
// order, and a second one fsyncs behind it, so fsync latency never
// sits on an inference thread nor holds up the queue: records that
// arrive during a slow fsync are written (and their payloads freed)
// while it runs, and the next fsync covers them all.
//
// Sequence numbers are assigned at enqueue time under a mutex, which
// makes journal order exactly admission order - the property replay
// depends on - and lets the caller stamp X-Albireo-Seq responses
// synchronously. When the queue is full the record is dropped and the
// journal goes DEGRADED permanently: a journal with holes cannot be
// replayed, so honesty beats completeness - the backpressure counter
// and the degraded gauge say exactly when the trace stopped being
// faithful, and inference never blocks on the journal.
type Async struct {
	w    *Writer
	ch   chan asyncEntry
	kick chan struct{} // one pending sync request, coalescing

	syncMu  sync.Mutex
	counted uint64 // durable head the appended counter has reached

	mu      sync.Mutex
	nextSeq uint64
	closed  bool

	degraded atomic.Bool
	enqueued atomic.Int64
	dropped  atomic.Int64
	done     chan struct{}

	appended     *obs.Counter
	backpressure *obs.Counter
	errsC        *obs.Counter
	headG        *obs.Gauge
	degradedG    *obs.Gauge
	trace        *obs.Trace
}

// NewAsync wraps a Writer in a bounded asynchronous appender.
// queueDepth <= 0 uses DefaultQueueDepth. Call Start to launch the
// writer goroutine and Close to drain and seal the journal.
func NewAsync(w *Writer, queueDepth int) *Async {
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	last, _ := w.Head()
	return &Async{
		w:       w,
		ch:      make(chan asyncEntry, queueDepth),
		kick:    make(chan struct{}, 1),
		counted: last,
		nextSeq: last + 1,
		done:    make(chan struct{}),
	}
}

// Instrument attaches an observability registry and/or trace (either
// may be nil) and returns the appender for chaining.
func (a *Async) Instrument(reg *obs.Registry, trace *obs.Trace) *Async {
	a.appended = reg.Counter(MetricAppended)
	a.backpressure = reg.Counter(MetricBackpressure)
	a.errsC = reg.Counter(MetricErrors)
	a.headG = reg.Gauge(MetricChainHead)
	a.degradedG = reg.Gauge(MetricDegraded)
	a.trace = trace
	last, _ := a.w.Head()
	a.headG.Set(float64(last))
	return a
}

// Start launches the writer goroutine, which starts and joins the
// syncer; Close joins the writer through the done channel closed here
// on exit.
func (a *Async) Start() {
	go func() {
		defer close(a.done)
		synced := make(chan struct{})
		go func() {
			defer close(synced)
			for range a.kick {
				a.sync()
			}
		}()
		a.serve()
		close(a.kick)
		<-synced
	}()
}

// serve drains the queue, writing records in seq order. Each pass
// takes everything already queued and writes it in 32 KB writes
// (Writer.write), then asks the syncer for an fsync; requests that
// arrive while one runs coalesce into the next, so a burst of records
// pays for one sync instead of one each - per-record fsync falls
// behind the admission rate whenever the disk stalls. A Drain barrier
// writes and syncs the records queued before it first, then acks.
func (a *Async) serve() {
	var batch []asyncEntry
	var pending []Entry
	for e := range a.ch {
		batch = append(batch[:0], e)
	gather:
		for {
			select {
			case e, ok := <-a.ch:
				if !ok {
					break gather
				}
				batch = append(batch, e)
			default:
				break gather
			}
		}
		var first uint64
		for _, e := range batch {
			if e.ack == nil {
				if len(pending) == 0 {
					first = e.seq
				}
				pending = append(pending, Entry{Kind: e.kind, Payload: e.payload})
				continue
			}
			a.write(first, pending)
			pending = pending[:0]
			a.sync()
			close(e.ack)
		}
		a.write(first, pending)
		// Drop the payload references until the next burst.
		clear(batch)
		clear(pending)
		pending = pending[:0]
	}
}

// write writes a run of queued records whose first assigned sequence
// number is first, and asks the syncer to make them durable.
func (a *Async) write(first uint64, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	seq, err := a.w.write(entries)
	if err != nil || seq != first {
		// An append failure (or a seq skew, which cannot happen
		// while enqueue order is preserved) poisons the chain's
		// faithfulness: degrade and stop accepting records.
		a.errsC.Inc()
		a.markDegraded("journal append failed")
		return
	}
	select {
	case a.kick <- struct{}{}:
	default: // a sync not yet started will cover these records
	}
}

// sync makes every written record durable and counts the records that
// became so, by the syncer or by a segment rotation, as appended.
func (a *Async) sync() {
	a.syncMu.Lock()
	defer a.syncMu.Unlock()
	if err := a.w.sync(); err != nil {
		a.errsC.Inc()
		a.markDegraded("journal sync failed")
		return
	}
	seq, _ := a.w.Head()
	a.appended.Add(int64(seq - a.counted))
	a.counted = seq
	a.headG.Set(float64(seq))
}

// markDegraded latches degradation and emits one trace event.
func (a *Async) markDegraded(why string) {
	if a.degraded.CompareAndSwap(false, true) {
		a.degradedG.Set(1)
		if a.trace != nil {
			sp := a.trace.StartSpan("journal/degraded")
			sp.Event(obs.JournalDegraded, why)
			sp.End()
		}
	}
}

// Record enqueues one record and returns its assigned sequence
// number, or -1 when the record was not accepted (journal degraded,
// queue full, or closed). Never blocks.
func (a *Async) Record(kind Kind, payload []byte) int64 {
	if a == nil {
		return -1
	}
	if a.degraded.Load() {
		a.dropped.Add(1)
		a.backpressure.Inc()
		return -1
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return -1
	}
	select {
	case a.ch <- asyncEntry{seq: a.nextSeq, kind: kind, payload: payload}:
		seq := a.nextSeq
		a.nextSeq++
		a.enqueued.Add(1)
		a.mu.Unlock()
		return int64(seq)
	default:
		a.mu.Unlock()
		a.dropped.Add(1)
		a.backpressure.Inc()
		a.markDegraded("journal queue full: record dropped")
		return -1
	}
}

// Admit journals one admitted request (pre-encoded with
// EncodeRequest) and returns its sequence number - the request's
// correlation id - or -1.
func (a *Async) Admit(encodedRequest []byte) int64 {
	return a.Record(KindAdmit, encodedRequest)
}

// Degraded reports whether the journal has stopped being a faithful
// trace (a record was dropped or an append failed).
func (a *Async) Degraded() bool {
	if a == nil {
		return false
	}
	return a.degraded.Load()
}

// Drain blocks until every record accepted before the call has been
// appended, without sealing the journal: it enqueues a barrier and
// waits for the writer goroutine to reach it. Crash-recovery tests
// use it to pin journal contents before abandoning the writer.
//
//lint:ignore unreachable TestJournalReplayBitExact pins journal contents with it before abandoning the writer
func (a *Async) Drain() {
	ack := make(chan struct{})
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.ch <- asyncEntry{ack: ack}
	a.mu.Unlock()
	<-ack
}

// Close stops accepting records, drains the queue, and seals the
// journal writer.
func (a *Async) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		<-a.done
		return nil
	}
	a.closed = true
	close(a.ch)
	a.mu.Unlock()
	<-a.done
	return a.w.Close()
}

// Status is the externally visible journal state (the /journal
// endpoint's wire shape).
type Status struct {
	// Dir is the journal directory.
	Dir string `json:"dir"`
	// HeadSeq is the last durably appended sequence number.
	HeadSeq uint64 `json:"head_seq"`
	// HeadHash is the hex chain head hash.
	HeadHash string `json:"head_hash"`
	// Enqueued counts records accepted onto the queue.
	Enqueued int64 `json:"enqueued"`
	// Dropped counts records refused under backpressure.
	Dropped int64 `json:"dropped"`
	// Degraded reports whether the trace is still faithful.
	Degraded bool `json:"degraded"`
}

// Status snapshots the journal state.
func (a *Async) Status() Status {
	seq, hash := a.w.Head()
	return Status{
		Dir:      a.w.Dir(),
		HeadSeq:  seq,
		HeadHash: hex.EncodeToString(hash[:]),
		Enqueued: a.enqueued.Load(),
		Dropped:  a.dropped.Load(),
		Degraded: a.degraded.Load(),
	}
}
