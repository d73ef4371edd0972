package memory

import (
	"testing"

	"albireo/internal/obs"
)

func TestMeterCountsAndEnergy(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	gb := GlobalBuffer()
	m := gb.Meter(reg, "global-buffer")

	er := m.Read(100)
	ew := m.Write(40)
	if er != gb.ReadEnergy(100) || ew != gb.WriteEnergy(40) {
		t.Fatal("metered energy must equal the unmetered model")
	}
	s := reg.Snapshot()
	if s.Counters[MetricSRAMReadBytes+`{array="global-buffer"}`] != 100 {
		t.Fatalf("read bytes wrong: %v", s.Counters)
	}
	if s.Counters[MetricSRAMWriteBytes+`{array="global-buffer"}`] != 40 {
		t.Fatalf("write bytes wrong: %v", s.Counters)
	}
	// 100 B over 8 B words = 13 reads; 40 B = 5 writes.
	if s.Counters[MetricSRAMAccesses+`{array="global-buffer"}`] != 18 {
		t.Fatalf("access count wrong: %v", s.Counters)
	}
	wantE := gb.ReadEnergy(100) + gb.WriteEnergy(40)
	if got := s.Gauges[MetricSRAMEnergy+`{array="global-buffer"}`]; got != wantE {
		t.Fatalf("energy gauge = %g, want %g", got, wantE)
	}
}

func TestMeterNilRegistryInert(t *testing.T) {
	t.Parallel()
	m := KernelCache().Meter(nil, "kernel-cache")
	if e := m.Read(64); e != KernelCache().ReadEnergy(64) {
		t.Fatal("unregistered meter must still price energy")
	}
	if m.Read(0) != 0 || m.Write(-5) != 0 {
		t.Fatal("non-positive sizes must be free no-ops")
	}
}

func TestCacheDirectMapped(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	c := NewCache(New(256, 4, 0, 0), 16, reg, "toy") // 16 lines of 16 B

	if c.Access(0) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(8) {
		t.Fatal("same line must hit")
	}
	// 256 bytes ahead maps to the same set: conflict eviction.
	if c.Access(256) {
		t.Fatal("conflicting line must miss")
	}
	if c.Access(0) {
		t.Fatal("evicted line must miss on return")
	}
	if c.Hits() != 1 || c.Misses() != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", c.Hits(), c.Misses())
	}
	s := reg.Snapshot()
	if s.Counters[MetricCacheHits+`{cache="toy"}`] != 1 ||
		s.Counters[MetricCacheMisses+`{cache="toy"}`] != 3 {
		t.Fatalf("registry disagrees with cache: %v", s.Counters)
	}
}

func TestCacheAccessRangeAndAccount(t *testing.T) {
	t.Parallel()
	c := NewCache(New(256, 4, 0, 0), 16, nil, "toy")
	if hits := c.AccessRange(0, 33); hits != 0 {
		t.Fatalf("cold 3-line range should miss everywhere, hit %d", hits)
	}
	if c.Misses() != 3 {
		t.Fatalf("range over 33 B at 16 B lines must touch 3 lines, got %d", c.Misses())
	}
	if hits := c.AccessRange(0, 33); hits != 3 {
		t.Fatalf("warm range should hit 3 lines, hit %d", hits)
	}
	c.Account(10, 20)
	if c.Hits() != 13 || c.Misses() != 23 {
		t.Fatalf("account totals wrong: %d/%d", c.Hits(), c.Misses())
	}
	if c.AccessRange(0, 0) != 0 {
		t.Fatal("empty range must be a no-op")
	}
	if c.lineBytes != 16 {
		t.Fatalf("line bytes = %d", c.lineBytes)
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("line larger than array must panic")
		}
	}()
	NewCache(New(16, 4, 0, 0), 64, nil, "bad")
}
