package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// oneLane is the sequential oracle: at GOMAXPROCS 1 forEachKernel
// takes its one-lane loop, which calls the per-kernel bodies in
// ascending m with the tile events interleaved in kernel order - the
// layer loops as they ran before the lanes existed. GOMAXPROCS is
// process-wide, so tests that use oneLane or manyLanes never call
// t.Parallel.
func oneLane[T any](f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return f()
}

// manyLanes runs f with at least two lanes' worth of GOMAXPROCS, so
// the helper pool takes part whenever the process has one.
func manyLanes[T any](f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	return f()
}

func assertSameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: output %d is %g, want %g", what, i, got[i], want[i])
		}
	}
}

// assertSameTrace compares two traces event by event: kind, name,
// span, attributes and order.
func assertSameTrace(t *testing.T, want, got *obs.Trace) {
	t.Helper()
	wj, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	gj, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("traces differ:\noracle: %s\nlanes:  %s", wj, gj)
	}
}

// laneLayer is one layer of the lane matrix: it runs a mapping on a
// chip and returns the output bits.
type laneLayer struct {
	name string
	// n is the kernel count, for shard windows; 0 marks a mapping
	// that does not shard.
	n   int
	run func(c *Chip, shard ShardSpec) []float64
}

func laneLayers() []laneLayer {
	dense := func(az, ay, ax, m, k, stride, pad int, seed int64) laneLayer {
		a := tensor.RandomVolume(az, ay, ax, seed)
		w := tensor.RandomKernels(m, az, k, k, seed+1)
		cc := tensor.ConvConfig{Stride: stride, Pad: pad}
		return laneLayer{name: fmt.Sprintf("conv%dx%d-s%dp%d", k, k, stride, pad), n: m, run: func(c *Chip, s ShardSpec) []float64 {
			if s.Whole() {
				return c.Conv(a, w, cc, true).Data
			}
			out := tensor.NewVolume(m, tensor.ConvOutputDim(ay, k, pad, stride), tensor.ConvOutputDim(ax, k, pad, stride))
			c.ConvShard(a, w, cc, true, s, out)
			return out.Data
		}}
	}
	dwA, dwW := tensor.RandomVolume(11, 8, 8, 521), tensor.RandomKernels(11, 1, 3, 3, 522)
	gA, gW := tensor.RandomVolume(6, 8, 8, 531), tensor.RandomKernels(14, 3, 3, 3, 532)
	pwA, pwW := tensor.RandomVolume(6, 7, 7, 541), tensor.RandomKernels(13, 6, 1, 1, 542)
	fcA, fcW := tensor.RandomVolume(4, 5, 5, 551), tensor.RandomKernels(16, 4, 5, 5, 552)
	mA, mB := tensor.RandomMatrix(10, 14, 561), tensor.RandomMatrix(14, 13, 562)
	return []laneLayer{
		dense(6, 10, 10, 13, 3, 1, 1, 501),
		dense(5, 9, 9, 10, 3, 2, 0, 511),
		dense(3, 12, 12, 11, 5, 1, 2, 517),
		// The live-tap block route: a strided 1x1, a 3x3 reading only
		// padding off its centre tap, and four live taps.
		dense(12, 9, 9, 13, 1, 2, 0, 571),
		dense(20, 1, 1, 13, 3, 1, 1, 573),
		dense(16, 2, 2, 13, 3, 2, 1, 575),
		{name: "depthwise", run: func(c *Chip, _ ShardSpec) []float64 {
			return c.Conv(dwA, dwW, tensor.ConvConfig{Pad: 1, Depthwise: true}, true).Data
		}},
		{name: "grouped", run: func(c *Chip, _ ShardSpec) []float64 {
			return c.Conv(gA, gW, tensor.ConvConfig{Pad: 1, Groups: 2}, false).Data
		}},
		{name: "pointwise", n: 13, run: func(c *Chip, s ShardSpec) []float64 {
			if s.Whole() {
				return c.Pointwise(pwA, pwW, true).Data
			}
			out := tensor.NewVolume(13, 7, 7)
			c.ConvShard(pwA, pwW, tensor.ConvConfig{}, true, s, out)
			return out.Data
		}},
		{name: "fc", n: 16, run: func(c *Chip, s ShardSpec) []float64 {
			if s.Whole() {
				return c.FullyConnected(fcA, fcW, true)
			}
			out := make([]float64, 16)
			c.FullyConnectedShard(fcA, fcW, true, s, out)
			return out
		}},
		{name: "gemm-signed", n: 13, run: func(c *Chip, s ShardSpec) []float64 {
			if s.Whole() {
				return c.GEMM(mA, mB, false).Data
			}
			out := tensor.NewMatrix(10, 13)
			c.GEMMShard(mA, mB, false, s, out)
			return out.Data
		}},
	}
}

// laneChipStates are the chip states of the lane matrix: healthy,
// faulted (with a drifting ring, whose gain depends on its unit's
// cycle count), and quarantined with one group fully dead, so fewer
// positions than PLCGs.
func laneChipStates() map[string]func(*Chip) {
	return map[string]func(*Chip){
		"healthy": func(*Chip) {},
		"faulted": func(c *Chip) {
			mustFault(c, 0, 0, Fault{Kind: StuckMZM, Tap: 2, Value: 0.7})
			mustFault(c, 1, 1, Fault{Kind: DeadRing, Tap: 4, Column: 1})
			mustFault(c, 2, 2, Fault{Kind: DetunedRing, Tap: 0, Column: 0, Value: 0.9, Drift: 1e-4})
		},
		"quarantined": func(c *Chip) {
			for u := 0; u < c.Config().Nu; u++ {
				mustQuarantine(c, 1, u)
			}
			mustQuarantine(c, 4, 2)
		},
	}
}

// TestLaneBitIdentity runs every mapping, chip state and shard window
// on the lane path and on the one-lane oracle, bare and instrumented,
// and demands identical output bits, registry snapshots and traces.
// Each chip runs its layer twice, so the second run sees warm
// programs and advanced cycle counters.
func TestLaneBitIdentity(t *testing.T) {
	for _, layer := range laneLayers() {
		for state, prep := range laneChipStates() {
			shards := []ShardSpec{{}}
			if layer.n > 0 {
				of := chipIn(prep).ActiveGroups()
				shards = append(shards, ShardSpec{Pos: 0, Count: 2, Of: of}, ShardSpec{Pos: 2, Count: of - 3, Of: of})
			}
			for _, shard := range shards {
				for _, instrumented := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%v/instrumented=%v", layer.name, state, shard, instrumented)
					run := func() laneRun { return runLaneLayer(layer, prep, shard, instrumented) }
					want, got := oneLane(run), manyLanes(run)
					assertSameBits(t, name, want.out, got.out)
					if instrumented {
						if !want.reg.Snapshot().Equal(got.reg.Snapshot()) {
							t.Fatalf("%s: registry snapshots differ", name)
						}
						assertSameTrace(t, want.trace, got.trace)
					}
				}
			}
		}
	}
}

// chipIn builds a default chip in the given state.
func chipIn(prep func(*Chip)) *Chip {
	c := NewChip(DefaultConfig())
	prep(c)
	return c
}

type laneRun struct {
	out   []float64
	reg   *obs.Registry
	trace *obs.Trace
}

func runLaneLayer(layer laneLayer, prep func(*Chip), shard ShardSpec, instrumented bool) laneRun {
	c := NewChip(DefaultConfig())
	var r laneRun
	if instrumented {
		r.reg, r.trace = obs.NewRegistry(), obs.NewTrace()
		c.Instrument(r.reg, r.trace)
	}
	prep(c)
	r.out = append(layer.run(c, shard), layer.run(c, shard)...)
	return r
}

// TestLaneNoGoroutineGrowth pins the pool's shape: the helpers start
// at package init, so running layers starts no goroutine and leaves
// none behind.
func TestLaneNoGoroutineGrowth(t *testing.T) {
	chip := NewChip(DefaultConfig())
	a := tensor.RandomVolume(6, 8, 8, 601)
	w := tensor.RandomKernels(13, 6, 3, 3, 602)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}
	before := steadyGoroutines()
	manyLanes(func() int {
		for i := 0; i < 100; i++ {
			chip.Conv(a, w, cc, true)
		}
		return 0
	})
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines %d -> %d over 100 layers", before, after)
	}
}

// steadyGoroutines returns the goroutine count once it has held for
// a few consecutive 1 ms polls: the previous test's runner goroutine
// can still be exiting when this test starts.
func steadyGoroutines() int {
	n := runtime.NumGoroutine()
	for same, polls := 0, 0; same < 5 && polls < 1000; polls++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestLaneSteadyStateAllocs is alloc_test.go's contract on the lane
// path. testing.AllocsPerRun pins GOMAXPROCS to 1, so it only sees
// the one-lane loop; this test counts mallocs process-wide, helper
// lanes included, with two or more lanes available. Each warm layer
// may allocate only its output (volume or matrix header plus data).
// The runtime refills its per-P caches of goroutine wait records
// (sudogs) now and then, a one-off malloc the layer code does not
// make, so the count is the least over a few attempts.
func TestLaneSteadyStateAllocs(t *testing.T) {
	chip := NewChip(DefaultConfig())
	a := tensor.RandomVolume(6, 16, 16, 1)
	w := tensor.RandomKernels(13, 6, 3, 3, 2)
	pw := tensor.RandomKernels(13, 6, 1, 1, 3)
	mA, mB := tensor.RandomMatrix(16, 64, 4), tensor.RandomMatrix(64, 32, 5)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}
	lt := tensor.RandomKernels(13, 6, 1, 1, 6)
	layers := []struct {
		name string
		want uint64
		run  func()
	}{
		{"conv", 2, func() { chip.Conv(a, w, cc, true) }},
		{"live-taps", 2, func() { chip.Conv(a, lt, tensor.ConvConfig{Stride: 2}, true) }},
		{"pointwise", 2, func() { chip.Pointwise(a, pw, true) }},
		{"gemm", 2, func() { chip.GEMM(mA, mB, false) }},
	}
	// A collection during the count could allocate runtime-internal
	// objects, so the collector is off while the layers run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs, attempts = 20, 5
	for _, l := range layers {
		got := manyLanes(func() uint64 {
			for i := 0; i < runs; i++ {
				l.run() // compile the program, grow the scratch and runtime caches
			}
			least := uint64(math.MaxUint64)
			for k := 0; k < attempts; k++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					l.run()
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.Mallocs-before.Mallocs)
			}
			return least
		})
		if got != runs*l.want {
			t.Errorf("warm %s on the lane path: %d mallocs over %d layers, want %d per layer", l.name, got, runs, l.want)
		}
	}
}
