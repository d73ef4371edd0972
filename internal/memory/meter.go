package memory

import (
	"albireo/internal/obs"
)

// Metric names emitted by metered SRAM arrays and caches. The array
// label distinguishes the global buffer from the per-PLCG kernel
// caches.
const (
	// MetricSRAMReadBytes and MetricSRAMWriteBytes count bytes moved
	// (label array="global-buffer"|"kernel-cache"|...).
	MetricSRAMReadBytes  = "albireo_sram_read_bytes_total"
	MetricSRAMWriteBytes = "albireo_sram_write_bytes_total"
	// MetricSRAMAccesses counts word-granular array activations.
	MetricSRAMAccesses = "albireo_sram_accesses_total"
	// MetricSRAMEnergy accumulates dynamic access energy in joules
	// (gauge: it carries a physical level, not an event count).
	MetricSRAMEnergy = "albireo_sram_energy_joules"
	// MetricCacheHits and MetricCacheMisses count line-granular cache
	// outcomes (label cache="...").
	MetricCacheHits   = "albireo_cache_hits_total"
	MetricCacheMisses = "albireo_cache_misses_total"
)

// Meter wraps an SRAM array with observability counters. A Meter is
// always usable: constructed against a nil registry its instruments
// are inert and it degrades to plain energy arithmetic, so callers
// never branch on whether telemetry is attached. All counts are
// event-denominated (bytes, word accesses) - never wall time.
type Meter struct {
	sram     SRAM
	reads    *obs.Counter
	writes   *obs.Counter
	accesses *obs.Counter
	energy   *obs.Gauge
}

// Meter returns a metered view of the array registering its counters
// under the given array label.
func (s SRAM) Meter(reg *obs.Registry, array string) *Meter {
	lbl := obs.L("array", array)
	return &Meter{
		sram:     s,
		reads:    reg.Counter(MetricSRAMReadBytes, lbl),
		writes:   reg.Counter(MetricSRAMWriteBytes, lbl),
		accesses: reg.Counter(MetricSRAMAccesses, lbl),
		energy:   reg.Gauge(MetricSRAMEnergy, lbl),
	}
}

func (m *Meter) words(n int) int64 {
	return int64((n + m.sram.WordBytes - 1) / m.sram.WordBytes)
}

// Read accounts an n-byte read and returns its dynamic energy.
func (m *Meter) Read(n int) float64 {
	if n <= 0 {
		return 0
	}
	m.reads.Add(int64(n))
	m.accesses.Add(m.words(n))
	e := m.sram.ReadEnergy(n)
	m.energy.Add(e)
	return e
}

// Write accounts an n-byte write and returns its dynamic energy.
func (m *Meter) Write(n int) float64 {
	if n <= 0 {
		return 0
	}
	m.writes.Add(int64(n))
	m.accesses.Add(m.words(n))
	e := m.sram.WriteEnergy(n)
	m.energy.Add(e)
	return e
}

// Cache is a direct-mapped tag simulator over an SRAM array. It
// models hit/miss behaviour only (the data path is the functional
// chip); the dataflow simulator replays representative address
// streams through it to measure kernel-cache locality instead of
// assuming it.
type Cache struct {
	sram      SRAM
	lineBytes int
	tags      []int64

	nhits, nmisses int64
	hits, misses   *obs.Counter
}

// NewCache builds a direct-mapped cache over s with the given line
// size, registering hit/miss counters under the cache label. A nil
// registry yields inert counters; local totals still accumulate.
func NewCache(s SRAM, lineBytes int, reg *obs.Registry, name string) *Cache {
	if lineBytes <= 0 || s.CapacityBytes < lineBytes {
		panic("memory: cache line must be positive and fit the array") //lint:ignore exit-hygiene cache geometry invariant; caller bug
	}
	lines := s.CapacityBytes / lineBytes
	tags := make([]int64, lines)
	for i := range tags {
		tags[i] = -1
	}
	lbl := obs.L("cache", name)
	return &Cache{
		sram:      s,
		lineBytes: lineBytes,
		tags:      tags,
		hits:      reg.Counter(MetricCacheHits, lbl),
		misses:    reg.Counter(MetricCacheMisses, lbl),
	}
}

// Access touches the byte address and reports whether it hit.
func (c *Cache) Access(addr int64) bool {
	line := addr / int64(c.lineBytes)
	set := line % int64(len(c.tags))
	if set < 0 {
		set += int64(len(c.tags))
	}
	if c.tags[set] == line {
		c.nhits++
		c.hits.Add(1)
		return true
	}
	c.tags[set] = line
	c.nmisses++
	c.misses.Add(1)
	return false
}

// AccessRange touches every line covering [addr, addr+n) and returns
// the number of hits.
func (c *Cache) AccessRange(addr int64, n int) (hits int64) {
	if n <= 0 {
		return 0
	}
	first := addr / int64(c.lineBytes)
	last := (addr + int64(n) - 1) / int64(c.lineBytes)
	for line := first; line <= last; line++ {
		if c.Access(line * int64(c.lineBytes)) {
			hits++
		}
	}
	return hits
}

// Account adds pre-computed hit/miss totals - used to extrapolate
// from a simulated representative stream to the full schedule without
// replaying every repetition.
func (c *Cache) Account(hits, misses int64) {
	if hits > 0 {
		c.nhits += hits
		c.hits.Add(hits)
	}
	if misses > 0 {
		c.nmisses += misses
		c.misses.Add(misses)
	}
}

// Hits returns the accumulated hit count.
func (c *Cache) Hits() int64 { return c.nhits }

// Misses returns the accumulated miss count.
func (c *Cache) Misses() int64 { return c.nmisses }
