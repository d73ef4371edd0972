package core

import (
	"math"
	"testing"

	"albireo/internal/nn"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

func TestShardSpecOwnership(t *testing.T) {
	t.Parallel()
	whole := ShardSpec{}
	if !whole.Whole() || !whole.Owns(7) {
		t.Fatal("zero spec must own everything")
	}
	if err := whole.Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	s := ShardSpec{Pos: 3, Count: 2, Of: 9}
	if s.Whole() {
		t.Fatal("partial spec reported whole")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for m := 0; m < 40; m++ {
		want := m%9 == 3 || m%9 == 4
		if s.Owns(m) != want {
			t.Fatalf("Owns(%d) = %v, want %v", m, s.Owns(m), want)
		}
	}
	if !(ShardSpec{Pos: 0, Count: 9, Of: 9}).Whole() {
		t.Fatal("full window must be whole")
	}
	empty := ShardSpec{Pos: 5, Count: 0, Of: 9}
	if empty.Owns(5) {
		t.Fatal("empty window must own nothing")
	}
	for _, bad := range []ShardSpec{
		{Pos: -1, Count: 2, Of: 9},
		{Pos: 8, Count: 2, Of: 9},
		{Pos: 0, Count: -1, Of: 9},
		{Pos: 1, Count: 0, Of: 0},
		{Pos: math.MaxInt / 2, Count: math.MaxInt/2 + 2, Of: 9},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("spec %v validated", bad)
		}
	}
}

func TestPartitionShards(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		of      int
		weights []int64
		want    []int // Count per worker
	}{
		{"even-pool-3", 9, []int64{27, 27, 27}, []int{3, 3, 3}},
		{"even-pool-4", 9, []int64{27, 27, 27, 27}, []int{3, 2, 2, 2}},
		{"degraded-gets-fewer", 9, []int64{27, 27, 18}, []int{4, 3, 2}},
		{"heavily-degraded-not-zero", 9, []int64{56, 1}, []int{8, 1}},
		{"drained-gets-zero", 9, []int64{27, 0, 27}, []int{5, 0, 4}},
		{"more-workers-than-positions", 2, []int64{9, 9, 9}, []int{1, 1, 0}},
		{"all-drained-round-robin", 4, []int64{0, 0}, []int{2, 2}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := PartitionShards(tc.of, tc.weights)
			if len(got) != len(tc.weights) {
				t.Fatalf("got %d specs, want %d", len(got), len(tc.weights))
			}
			pos := 0
			for i, s := range got {
				if s.Count != tc.want[i] {
					t.Fatalf("worker %d owns %d positions, want %d (specs %v)", i, s.Count, tc.want[i], got)
				}
				if s.Pos != pos || s.Of != tc.of {
					t.Fatalf("worker %d window %v not contiguous from %d/%d", i, s, pos, tc.of)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("worker %d spec invalid: %v", i, err)
				}
				pos += s.Count
			}
			if pos != tc.of {
				t.Fatalf("windows cover %d of %d positions", pos, tc.of)
			}
		})
	}
}

func TestPartitionShardsDeterministic(t *testing.T) {
	t.Parallel()
	w := []int64{10, 10, 10, 10, 7}
	a := PartitionShards(9, w)
	for i := 0; i < 50; i++ {
		b := PartitionShards(9, w)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("run %d: spec %d changed %v -> %v", i, j, a[j], b[j])
			}
		}
	}
}

// shardPreps is the golden matrix of chip states the sharded paths
// must stay bit-identical under. Bit-identity requires clone chips, so
// every prep is applied identically to the reference and all shards.
var shardPreps = map[string]func(*Chip){
	"healthy": nil,
	"faulty": func(c *Chip) {
		mustFault(c, 0, 0, Fault{Kind: StuckMZM, Tap: 1, Value: 0.6})
		mustFault(c, 3, 2, Fault{Kind: DetunedRing, Tap: 5, Column: 2, Value: 0.9, Drift: 1e-4})
		mustFault(c, 7, 1, Fault{Kind: DeadRing, Tap: 2, Column: 0})
	},
	"quarantined": func(c *Chip) {
		// Group 4 loses all three units: the active-group count (and
		// therefore the shard modulus) drops to 8.
		mustQuarantine(c, 4, 0)
		mustQuarantine(c, 4, 1)
		mustQuarantine(c, 4, 2)
		mustQuarantine(c, 1, 2)
	},
}

// cloneChips builds n+1 identically prepared chips: the unsharded
// reference plus n shard executors. Same Config (including Seed) and
// same fault/quarantine state is exactly the fleet's clone-pool setup.
func cloneChips(t *testing.T, n int, prep func(*Chip)) (*Chip, []*Chip) {
	t.Helper()
	ref := NewChip(DefaultConfig())
	if prep != nil {
		prep(ref)
	}
	shards := make([]*Chip, n)
	for i := range shards {
		shards[i] = NewChip(DefaultConfig())
		if prep != nil {
			prep(shards[i])
		}
	}
	return ref, shards
}

func evenShards(of, n int) []ShardSpec {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return PartitionShards(of, w)
}

func sameVolumeBits(t *testing.T, got, want *tensor.Volume, what string) {
	t.Helper()
	if got.Z != want.Z || got.Y != want.Y || got.X != want.X {
		t.Fatalf("%s: shape %dx%dx%d != %dx%dx%d", what, got.Z, got.Y, got.X, want.Z, want.Y, want.X)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: bit divergence at %d: %g vs %g", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestConvShardUnionBitIdentical is the tentpole invariant: the union
// of per-chip shard outputs must match the single-chip result bit for
// bit across healthy, faulted, and quarantined clone pools, for every
// shardable mapping (3x3 conv, pointwise-routed 1x1 conv, the
// live-tap block route, FC, GEMM).
func TestConvShardUnionBitIdentical(t *testing.T) {
	t.Parallel()
	for name, prep := range shardPreps {
		prep := prep
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			t.Run("conv3x3", func(t *testing.T) {
				t.Parallel()
				a := tensor.RandomVolume(6, 10, 10, 901)
				w := tensor.RandomKernels(13, 6, 3, 3, 902) // 13 kernels: uneven residues
				cc := tensor.ConvConfig{Stride: 1, Pad: 1}
				ref, chips := cloneChips(t, 3, prep)
				want := ref.Conv(a, w, cc, true)
				of := chips[0].ActiveGroups()
				got := tensor.NewVolume(want.Z, want.Y, want.X)
				for i, s := range evenShards(of, len(chips)) {
					chips[i].ConvShard(a, w, cc, true, s, got)
				}
				sameVolumeBits(t, got, want, "conv3x3")
			})
			t.Run("pointwise1x1", func(t *testing.T) {
				t.Parallel()
				a := tensor.RandomVolume(7, 6, 6, 903)
				w := tensor.RandomKernels(11, 7, 1, 1, 904)
				cc := tensor.ConvConfig{Stride: 1, Pad: 0}
				ref, chips := cloneChips(t, 2, prep)
				// The unsharded serving path routes this shape to the
				// pointwise mapping; ConvShard must shard that mapping.
				want := ref.Pointwise(a, w, true)
				of := chips[0].ActiveGroups()
				got := tensor.NewVolume(want.Z, want.Y, want.X)
				for i, s := range evenShards(of, len(chips)) {
					chips[i].ConvShard(a, w, cc, true, s, got)
				}
				sameVolumeBits(t, got, want, "pointwise1x1")
			})
			for _, tc := range liveTapShapes() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					t.Parallel()
					a := tensor.RandomVolume(tc.z, tc.ay, tc.ax, 931)
					w := tensor.RandomKernels(tc.m, tc.z, tc.k, tc.k, 932)
					cc := tensor.ConvConfig{Stride: tc.stride, Pad: tc.pad}
					ref, chips := cloneChips(t, 2, prep)
					want := ref.Conv(a, w, cc, true)
					of := chips[0].ActiveGroups()
					got := tensor.NewVolume(want.Z, want.Y, want.X)
					for i, s := range evenShards(of, len(chips)) {
						chips[i].ConvShard(a, w, cc, true, s, got)
					}
					sameVolumeBits(t, got, want, tc.name)
				})
			}
			t.Run("fc", func(t *testing.T) {
				t.Parallel()
				a := tensor.RandomVolume(5, 4, 4, 905)
				w := tensor.RandomKernels(10, 5, 4, 4, 906)
				ref, chips := cloneChips(t, 2, prep)
				want := ref.FullyConnected(a, w, false)
				of := chips[0].ActiveGroups()
				got := make([]float64, len(want))
				for i, s := range evenShards(of, len(chips)) {
					chips[i].FullyConnectedShard(a, w, false, s, got)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("fc: bit divergence at %d: %g vs %g", i, got[i], want[i])
					}
				}
			})
			t.Run("gemm", func(t *testing.T) {
				t.Parallel()
				a := tensor.RandomMatrix(11, 13, 907)
				b := tensor.RandomMatrix(13, 10, 908)
				ref, chips := cloneChips(t, 4, prep)
				want := ref.GEMM(a, b, false)
				of := chips[0].ActiveGroups()
				got := tensor.NewMatrix(want.R, want.C)
				for i, s := range evenShards(of, len(chips)) {
					chips[i].GEMMShard(a, b, false, s, got)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("gemm: bit divergence at %d: %g vs %g", i, got.Data[i], want.Data[i])
					}
				}
			})
		})
	}
}

// TestShardWholeMatchesUnsharded pins the identity element: a whole
// shard on one chip is the unsharded result, and shares its program
// cache entry (so the sharded dispatch path costs nothing at pool 1).
func TestShardWholeMatchesUnsharded(t *testing.T) {
	t.Parallel()
	a := tensor.RandomVolume(4, 8, 8, 911)
	w := tensor.RandomKernels(9, 4, 3, 3, 912)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}
	ref, chips := cloneChips(t, 1, nil)
	want := ref.Conv(a, w, cc, false)
	got := tensor.NewVolume(want.Z, want.Y, want.X)
	c := chips[0]
	c.ConvShard(a, w, cc, false, ShardSpec{Pos: 0, Count: c.ActiveGroups(), Of: c.ActiveGroups()}, got)
	sameVolumeBits(t, got, want, "whole shard")
	if len(c.progs) != 1 {
		t.Fatalf("whole shard compiled %d programs, want 1 (normalized cache key)", len(c.progs))
	}
}

// TestShardEmptyWindowIdle pins that an empty shard does no analog
// work: no PLCG steps, no output writes.
func TestShardEmptyWindowIdle(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	c := NewChip(DefaultConfig())
	c.Instrument(reg, nil)
	a := tensor.RandomVolume(4, 6, 6, 913)
	w := tensor.RandomKernels(9, 4, 3, 3, 914)
	out := tensor.NewVolume(9, 6, 6)
	c.ConvShard(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, false, ShardSpec{Pos: 3, Count: 0, Of: 9}, out)
	if steps := ObservedActivity(reg.Snapshot()).Steps; steps != 0 {
		t.Fatalf("empty shard ran %d PLCG steps", steps)
	}
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("empty shard wrote output at %d: %g", i, v)
		}
	}
}

// TestShardStepsProportional pins the perf mechanism the fleet's
// latency win rests on: a chip executing a k-of-Of shard performs
// exactly the owned kernels' share of PLCG steps.
func TestShardStepsProportional(t *testing.T) {
	t.Parallel()
	a := tensor.RandomVolume(6, 10, 10, 915)
	w := tensor.RandomKernels(18, 6, 3, 3, 916) // 18 kernels = 2 per residue mod 9
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}

	fullReg := obs.NewRegistry()
	full := NewChip(DefaultConfig())
	full.Instrument(fullReg, nil)
	full.Conv(a, w, cc, false)
	fullSteps := ObservedActivity(fullReg.Snapshot()).Steps

	shardReg := obs.NewRegistry()
	c := NewChip(DefaultConfig())
	c.Instrument(shardReg, nil)
	out := tensor.NewVolume(18, 10, 10)
	c.ConvShard(a, w, cc, false, ShardSpec{Pos: 0, Count: 3, Of: 9}, out)
	shardSteps := ObservedActivity(shardReg.Snapshot()).Steps

	if want := fullSteps / 3; shardSteps != want {
		t.Fatalf("3-of-9 shard ran %d steps, want exactly %d (full %d)", shardSteps, want, fullSteps)
	}
}

// TestShardWindowActivitySumsToLayer runs every shardable mapping -
// a dense conv, the live-tap shapes, FC and a signed GEMM - over the
// PartitionShards windows of 2 and 3 equal workers, each window on its
// own chip: the windows' device counters sum to the whole layer's
// ExpectedActivity.
func TestShardWindowActivitySumsToLayer(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.FCWide = false // the chip always runs FC narrow
	a := tensor.RandomVolume(6, 10, 10, 941)
	w, fc := tensor.RandomKernels(13, 6, 3, 3, 942), tensor.RandomKernels(13, 6, 10, 10, 943)
	signed, b := tensor.RandomMatrix(11, 23, 944), tensor.RandomMatrix(23, 13, 945)
	type mapping struct {
		name  string
		layer nn.Layer
		run   func(*Chip, ShardSpec)
	}
	cases := []mapping{
		{"dense-conv", nn.Layer{Kind: nn.Conv, InZ: 6, InY: 10, InX: 10, OutZ: 13, KY: 3, KX: 3, Stride: 1, Pad: 1},
			func(c *Chip, s ShardSpec) {
				c.ConvShard(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, false, s, tensor.NewVolume(13, 10, 10))
			}},
		{"fc", nn.Layer{Kind: nn.FC, InZ: 6, InY: 10, InX: 10, OutZ: 13, KY: 1, KX: 1},
			func(c *Chip, s ShardSpec) { c.FullyConnectedShard(a, fc, false, s, make([]float64, 13)) }},
		{"gemm-signed", nn.Layer{Kind: nn.GEMM, InZ: 23, InY: 1, InX: 11, OutZ: 13, KY: 1, KX: 1},
			func(c *Chip, s ShardSpec) { c.GEMMShard(signed, b, false, s, tensor.NewMatrix(11, 13)) }},
	}
	for _, tc := range liveTapShapes() {
		cases = append(cases, mapping{"live-tap-" + tc.name, tc.layer(), tc.run})
	}
	for _, tc := range cases {
		want := cfg.ExpectedActivity(tc.layer)
		for _, workers := range []int{2, 3} {
			var sum Activity
			for _, s := range evenShards(cfg.Ng, workers) {
				got := observe(NewChip(cfg), func(c *Chip) { tc.run(c, s) })
				sum.Steps += got.Steps
				sum.MZMPrograms += got.MZMPrograms
				sum.MRRSwitches += got.MRRSwitches
				sum.PDReads += got.PDReads
				sum.ADCConversions += got.ADCConversions
			}
			if sum != want {
				t.Errorf("%s over %d workers: observed %+v summed, want %+v", tc.name, workers, sum, want)
			}
		}
	}
}
