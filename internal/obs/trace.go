package obs

import (
	"encoding/json"
	"sync"
)

// EventKind types the span events the simulator emits.
type EventKind int

const (
	// SpanStart opens a span (a layer, a sweep, a simulated schedule).
	SpanStart EventKind = iota
	// SpanEnd closes a span.
	SpanEnd
	// TileScheduled marks one unit of work placed on a hardware block
	// (a kernel assigned to a PLCG, an output tile issued).
	TileScheduled
	// FaultInjected marks a hardware defect being injected.
	FaultInjected
	// FaultDetected marks a BIST probe localizing a defect.
	FaultDetected
	// UnitQuarantined marks a PLCU being taken out of service.
	UnitQuarantined
	// BackendFallback marks a layer rerouted to the digital reference
	// because its divergence exceeded the accuracy budget.
	BackendFallback
	// RequestShed marks an inference request refused at admission
	// because the fleet queue was full.
	RequestShed
	// BatchDispatched marks a coalesced request batch handed to a
	// fleet worker.
	BatchDispatched
	// WorkerDrained marks a fleet worker taken out of the routing set
	// after a failed health probe.
	WorkerDrained
	// WorkerRestored marks a drained fleet worker returned to service
	// after a clean re-probe.
	WorkerRestored
	// RequestCompleted marks a request batch reaching its completion
	// point, stamped with its latency decomposition.
	RequestCompleted
	// JournalDegraded marks the request journal ceasing to be a
	// faithful trace (a record was dropped under backpressure or an
	// append failed).
	JournalDegraded
	// RequestSharded marks a fleet request fanned out into kernel-group
	// sub-requests across the in-service pool.
	RequestSharded
	// Mark is a free-form point event.
	Mark
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case SpanStart:
		return "span-start"
	case SpanEnd:
		return "span-end"
	case TileScheduled:
		return "tile-scheduled"
	case FaultInjected:
		return "fault-injected"
	case FaultDetected:
		return "fault-detected"
	case UnitQuarantined:
		return "unit-quarantined"
	case BackendFallback:
		return "backend-fallback"
	case RequestShed:
		return "request-shed"
	case BatchDispatched:
		return "batch-dispatched"
	case WorkerDrained:
		return "worker-drained"
	case WorkerRestored:
		return "worker-restored"
	case RequestCompleted:
		return "request-completed"
	case JournalDegraded:
		return "journal-degraded"
	case RequestSharded:
		return "request-sharded"
	case Mark:
		return "mark"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the kind by name so traces are self-describing.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Attr is one key/value annotation on an event. A slice (not a map)
// keeps JSON output deterministic.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: itoa(v)} }

// itoa formats an int64 without pulling strconv into every call site.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [21]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	//lint:ignore hotpath-alloc-proof attrs are built only on trace-attached paths; the string must outlive the stack buffer
	return string(buf[i:])
}

// Event is one trace record. Seq is the deterministic arrival order
// (single-writer emission yields a reproducible sequence; concurrent
// emission yields reproducible per-kind counts). Cycle is the
// simulation-time stamp in modulation cycles; it is 0 unless the
// emitter stamps it - the trace never consults a wall clock.
type Event struct {
	Seq    int64     `json:"seq"`
	Cycle  int64     `json:"cycle,omitempty"`
	Kind   EventKind `json:"kind"`
	Name   string    `json:"name"`
	Span   int64     `json:"span"`
	Parent int64     `json:"parent,omitempty"`
	Attrs  []Attr    `json:"attrs,omitempty"`
}

// DefaultTraceCap bounds a trace's event buffer; past it, events are
// counted in Dropped instead of stored, so a long-running sweep
// cannot grow without bound.
const DefaultTraceCap = 1 << 16

// Trace is an append-only buffer of span events. The zero value is
// not useful; use NewTrace. All methods are safe for concurrent use
// and are no-ops on a nil trace.
type Trace struct {
	mu       sync.Mutex
	seq      int64
	nextSpan int64
	events   []Event
	cap      int
	dropped  int64
}

// NewTrace returns an empty trace with the default event cap.
func NewTrace() *Trace { return NewTraceCap(DefaultTraceCap) }

// NewTraceCap returns an empty trace holding at most capEvents
// events (0 or negative means the default).
func NewTraceCap(capEvents int) *Trace {
	if capEvents <= 0 {
		capEvents = DefaultTraceCap
	}
	return &Trace{cap: capEvents}
}

// Span is a handle onto an open span. Methods on a nil span no-op,
// so call sites need no nil checks when tracing is detached.
type Span struct {
	t      *Trace
	id     int64
	parent int64
}

// record appends one event under the lock.
func (t *Trace) record(cycle int64, kind EventKind, name string, span, parent int64, attrs []Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.cap {
		t.dropped++
		t.seq++
		return
	}
	//lint:ignore hotpath-alloc-proof capped event buffer: growth is amortized and only happens while a trace is attached
	t.events = append(t.events, Event{
		Seq:    t.seq,
		Cycle:  cycle,
		Kind:   kind,
		Name:   name,
		Span:   span,
		Parent: parent,
		Attrs:  attrs,
	})
	t.seq++
}

// StartSpan opens a root span. Nil traces return a nil span.
func (t *Trace) StartSpan(name string, attrs ...Attr) *Span {
	return t.startSpan(0, name, attrs)
}

func (t *Trace) startSpan(parent int64, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextSpan++
	id := t.nextSpan
	t.mu.Unlock()
	t.record(0, SpanStart, name, id, parent, attrs)
	return &Span{t: t, id: id, parent: parent}
}

// StartSpan opens a child span.
func (s *Span) StartSpan(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.startSpan(s.id, name, attrs)
}

// Event records a point event inside the span with no cycle stamp.
func (s *Span) Event(kind EventKind, name string, attrs ...Attr) {
	s.EventAt(0, kind, name, attrs...)
}

// EventAt records a point event stamped with a simulation cycle.
func (s *Span) EventAt(cycle int64, kind EventKind, name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.record(cycle, kind, name, s.id, s.parent, attrs)
}

// End closes the span.
func (s *Span) End(attrs ...Attr) { s.EndAt(0, attrs...) }

// EndAt closes the span stamped with a simulation cycle.
func (s *Span) EndAt(cycle int64, attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.record(cycle, SpanEnd, "", s.id, s.parent, attrs)
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events fell past the cap.
//
//lint:ignore unreachable TestTraceCapDrops observes the production cap with it
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the buffered events.
//
//lint:ignore unreachable TestSpanNesting reads the recorded spans with it
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Reset drops all buffered events and restarts the sequence.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = t.events[:0]
	t.seq = 0
	t.nextSpan = 0
	t.dropped = 0
}

// CountByKind tallies events per kind name - the order-insensitive
// view two schedules of the same work must agree on (for example
// Conv on one lane and on many).
//
//lint:ignore unreachable TestQuarantineObservability and TestScanObservability tally the production trace with it
func (t *Trace) CountByKind() map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.events {
		out[e.Kind.String()]++
	}
	return out
}

// traceJSON is the wire shape of a trace export.
type traceJSON struct {
	Events  []Event `json:"events"`
	Dropped int64   `json:"dropped"`
}

// JSON renders the trace as a JSON document. Nil traces render as an
// empty (valid) trace.
func (t *Trace) JSON() ([]byte, error) {
	doc := traceJSON{Events: []Event{}}
	if t != nil {
		t.mu.Lock()
		doc.Events = append(doc.Events, t.events...)
		doc.Dropped = t.dropped
		t.mu.Unlock()
	}
	return json.MarshalIndent(doc, "", " ")
}
