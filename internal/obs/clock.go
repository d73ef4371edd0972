package obs

import (
	"sync"
	"time"
)

// Clock abstracts wall time so that it only ever enters the system as
// an injected dependency at the cmd boundary. Simulation packages
// must never construct a WallClock: their telemetry is denominated in
// modulation cycles and event counts (the determinism contract the
// albireo-lint obs-determinism rule enforces). Servers and CLIs
// inject WallClock; tests inject ManualClock.
type Clock interface {
	Now() time.Time
}

// WallClock reads the real wall clock. It is the single sanctioned
// wall-time source in the module.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time {
	//lint:ignore determinism the injected Clock boundary is the one sanctioned wall-time source; simulation code receives a Clock, never calls this
	return time.Now()
}

// ManualClock is a deterministic Clock for tests: it returns a fixed
// instant until advanced.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock returns a ManualClock starting at t.
//
//lint:ignore unreachable TestManualClock and albireo-serve's tests drive time with it
func NewManualClock(t time.Time) *ManualClock {
	return &ManualClock{t: t}
}

// Now implements Clock.
func (m *ManualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

// Advance moves the clock forward by d.
//
//lint:ignore unreachable TestManualClock and albireo-serve's tests drive time with it
func (m *ManualClock) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.t = m.t.Add(d)
}
