package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	t.Parallel()
	tr := NewTrace()
	root := tr.StartSpan("layer", String("backend", "exact"))
	child := root.StartSpan("tile")
	child.EventAt(42, TileScheduled, "kernel3", Int("plcg", 1))
	child.EndAt(45)
	root.End()

	ev := tr.Events()
	if len(ev) != 5 {
		t.Fatalf("want 5 events, got %d", len(ev))
	}
	if ev[0].Kind != SpanStart || ev[0].Name != "layer" || ev[0].Parent != 0 {
		t.Fatalf("root start wrong: %+v", ev[0])
	}
	if ev[1].Kind != SpanStart || ev[1].Parent != ev[0].Span {
		t.Fatalf("child must carry parent span id: %+v", ev[1])
	}
	if ev[2].Cycle != 42 || ev[2].Kind != TileScheduled {
		t.Fatalf("event cycle stamp wrong: %+v", ev[2])
	}
	if ev[3].Kind != SpanEnd || ev[3].Cycle != 45 {
		t.Fatalf("child end wrong: %+v", ev[3])
	}
	for i, e := range ev {
		if e.Seq != int64(i) {
			t.Fatalf("seq %d at index %d", e.Seq, i)
		}
	}
}

func TestTraceJSON(t *testing.T) {
	t.Parallel()
	tr := NewTrace()
	sp := tr.StartSpan("conv", String("shape", "6x10x10"))
	sp.Event(TileScheduled, "kernel3", Int("plcg", 1))
	sp.End()

	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []struct {
			Kind  string `json:"kind"`
			Name  string `json:"name"`
			Attrs []Attr `json:"attrs"`
		} `json:"events"`
		Dropped int64 `json:"dropped"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, raw)
	}
	if len(doc.Events) != 3 || doc.Events[1].Kind != "tile-scheduled" || doc.Events[1].Name != "kernel3" {
		t.Fatalf("unexpected trace: %s", raw)
	}
}

func TestEmptyTraceJSONIsValid(t *testing.T) {
	t.Parallel()
	var tr *Trace
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("nil trace JSON invalid: %v", err)
	}
	if _, ok := doc["events"]; !ok {
		t.Fatalf("nil trace JSON missing events array: %s", raw)
	}
}

func TestTraceCapDrops(t *testing.T) {
	t.Parallel()
	tr := NewTraceCap(3)
	sp := tr.StartSpan("s")
	for i := 0; i < 10; i++ {
		sp.Event(Mark, "m")
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want cap 3", tr.Len())
	}
	if tr.Dropped() != 8 {
		t.Fatalf("dropped = %d, want 8", tr.Dropped())
	}
}

func TestCountByKindAndReset(t *testing.T) {
	t.Parallel()
	tr := NewTrace()
	sp := tr.StartSpan("s")
	sp.Event(TileScheduled, "a")
	sp.Event(TileScheduled, "b")
	sp.Event(FaultInjected, "f")
	sp.End()
	counts := tr.CountByKind()
	if counts["tile-scheduled"] != 2 || counts["fault-injected"] != 1 || counts["span-start"] != 1 {
		t.Fatalf("counts wrong: %v", counts)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("reset must clear the trace")
	}
}

func TestEventKindStrings(t *testing.T) {
	t.Parallel()
	kinds := []EventKind{SpanStart, SpanEnd, TileScheduled, FaultInjected, Mark,
		RequestShed, BatchDispatched, WorkerDrained, WorkerRestored, EventKind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

func TestManualClock(t *testing.T) {
	t.Parallel()
	start := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
	c := NewManualClock(start)
	if !c.Now().Equal(start) {
		t.Fatal("manual clock must start where constructed")
	}
	c.Advance(3 * time.Second)
	if got := c.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("advance = %v", got)
	}
}

func TestWallClockMovesForward(t *testing.T) {
	t.Parallel()
	var c Clock = WallClock{}
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatal("wall clock went backwards")
	}
}

func TestItoa(t *testing.T) {
	t.Parallel()
	cases := map[int64]string{0: "0", 7: "7", -13: "-13", 1234567890: "1234567890"}
	for v, want := range cases {
		if got := itoa(v); got != want {
			t.Errorf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}
