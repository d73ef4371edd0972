package core

import (
	"fmt"
	"testing"

	"albireo/internal/nn"
	"albireo/internal/tensor"
)

// bruteLiveTaps lists the taps of a ky x kx kernel that read at least
// one non-padding input for some output pixel, row-major, by visiting
// every output pixel.
func bruteLiveTaps(ay, ax, ky, kx, stride, pad int) [][2]int {
	by, bx := tensor.ConvOutputDim(ay, ky, pad, stride), tensor.ConvOutputDim(ax, kx, pad, stride)
	var live [][2]int
	for ty := 0; ty < ky; ty++ {
		for tx := 0; tx < kx; tx++ {
			reads := false
			for oy := 0; oy < by; oy++ {
				for ox := 0; ox < bx; ox++ {
					iy, ix := oy*stride+ty-pad, ox*stride+tx-pad
					reads = reads || (iy >= 0 && iy < ay && ix >= 0 && ix < ax)
				}
			}
			if reads {
				live = append(live, [2]int{ty, tx})
			}
		}
	}
	return live
}

// TestLiveTapsMatchBruteForce checks the per-axis live-tap masks
// against a visit of every output pixel, including geometries whose
// live taps are not contiguous (stride larger than the input).
func TestLiveTapsMatchBruteForce(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	for ay := 1; ay <= 6; ay++ {
		for k := 1; k <= 5; k++ {
			for stride := 1; stride <= 3; stride++ {
				for pad := 0; pad <= k; pad++ {
					if tensor.ConvOutputDim(ay, k, pad, stride) < 1 {
						continue
					}
					ax := ay%3 + 1
					taps, block := cfg.denseLayout(ay, ax, k, k, stride, pad)
					want := bruteLiveTaps(ay, ax, k, k, stride, pad)
					var got [][2]int
					for ty := 0; ty < k; ty++ {
						for tx := 0; tx < k; tx++ {
							if taps.live(ty, tx) {
								got = append(got, [2]int{ty, tx})
							}
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(want) || taps.count() != len(want) {
						t.Fatalf("%dx%d input, k=%d s=%d p=%d: live taps %v (count %d), want %v", ay, ax, k, stride, pad, got, taps.count(), want)
					}
					if block != (len(want) < cfg.Nm) {
						t.Fatalf("%dx%d input, k=%d s=%d p=%d: block=%v with L=%d", ay, ax, k, stride, pad, block, len(want))
					}
				}
			}
		}
	}
}

// liveTapIm2col is the explicit oracle of the block route: the
// live-tap im2col volume of a (plane z*L+l holds what live tap l of
// channel z reads at each output pixel, zero in the padding) and the
// matching Z*L-channel 1x1 kernel bank, built from bruteLiveTaps and
// tensor.AtPadded.
func liveTapIm2col(a *tensor.Volume, w *tensor.Kernels, stride, pad int) (*tensor.Volume, *tensor.Kernels) {
	live := bruteLiveTaps(a.Y, a.X, w.Y, w.X, stride, pad)
	by, bx := tensor.ConvOutputDim(a.Y, w.Y, pad, stride), tensor.ConvOutputDim(a.X, w.X, pad, stride)
	n := len(live)
	vol := tensor.NewVolume(a.Z*n, by, bx)
	k := tensor.NewKernels(w.M, w.Z*n, 1, 1)
	for z := 0; z < a.Z; z++ {
		for l, tap := range live {
			for oy := 0; oy < by; oy++ {
				for ox := 0; ox < bx; ox++ {
					vol.Set(z*n+l, oy, ox, a.AtPadded(z, oy*stride+tap[0]-pad, ox*stride+tap[1]-pad))
				}
			}
			for m := 0; m < w.M; m++ {
				k.Set(m, z*n+l, 0, 0, w.At(m, z, tap[0], tap[1]))
			}
		}
	}
	return vol, k
}

// TestLiveTapGoldenOracles pins the block route bit for bit against
// Pointwise on explicitly built inputs: the strided 1x1 projection on
// the subsampled input, the padding-only 3x3 on its centre tap, and
// the four-live-tap stride-2 3x3 on its im2col volume. The strided
// input's largest value sits on a pixel the layer never reads, so the
// oracle also pins normalization by the values the layer reads. On a
// noiseless chip every re-routed shape also tracks the exact
// convolution (a tolerance check: crosstalk and the converters still
// round).
func TestLiveTapGoldenOracles(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	t.Run("1x1-stride2", func(t *testing.T) {
		t.Parallel()
		a := tensor.RandomVolume(16, 8, 8, 701)
		a.Set(3, 1, 1, 5)
		w := tensor.RandomKernels(12, 16, 1, 1, 702)
		sub := tensor.NewVolume(16, 4, 4)
		sub.Fill(func(z, y, x int) float64 { return a.At(z, 2*y, 2*x) })
		for _, relu := range []bool{false, true} {
			want := NewChip(cfg).Pointwise(sub, w, relu)
			got := NewChip(cfg).Conv(a, w, tensor.ConvConfig{Stride: 2}, relu)
			sameVolumeBits(t, got, want, fmt.Sprintf("1x1 stride 2 relu=%v", relu))
		}
	})
	t.Run("padding-only-taps", func(t *testing.T) {
		t.Parallel()
		a := tensor.RandomVolume(24, 1, 1, 703)
		w := tensor.RandomKernels(10, 24, 3, 3, 704)
		centre := tensor.NewKernels(10, 24, 1, 1)
		for m := 0; m < 10; m++ {
			for z := 0; z < 24; z++ {
				centre.Set(m, z, 0, 0, w.At(m, z, 1, 1))
			}
		}
		want := NewChip(cfg).Pointwise(a, centre, true)
		got := NewChip(cfg).Conv(a, w, tensor.ConvConfig{Pad: 1}, true)
		sameVolumeBits(t, got, want, "3x3 pad 1 on 1x1")
	})
	t.Run("four-live-taps", func(t *testing.T) {
		t.Parallel()
		a := tensor.RandomVolume(12, 2, 2, 705)
		w := tensor.RandomKernels(10, 12, 3, 3, 706)
		vol, k := liveTapIm2col(a, w, 2, 1)
		if vol.Z != 12*4 {
			t.Fatalf("im2col has %d planes, want 48 (L = 4)", vol.Z)
		}
		// The second call runs on the warm kernel-bank view and program.
		chip, ref := NewChip(cfg), NewChip(cfg)
		for i := 0; i < 2; i++ {
			got := chip.Conv(a, w, tensor.ConvConfig{Stride: 2, Pad: 1}, false)
			sameVolumeBits(t, got, ref.Pointwise(vol, k, false), fmt.Sprintf("3x3 stride 2 pad 1 on 2x2, call %d", i))
		}
	})
	t.Run("noiseless-vs-tensor", func(t *testing.T) {
		t.Parallel()
		quiet := cfg
		quiet.DisableNoise = true
		for _, tc := range liveTapShapes() {
			a := tensor.RandomVolume(tc.z, tc.ay, tc.ax, 711)
			w := tensor.RandomKernels(tc.m, tc.z, tc.k, tc.k, 712)
			cc := tensor.ConvConfig{Stride: tc.stride, Pad: tc.pad}
			got := NewChip(quiet).Conv(a, w, cc, false)
			if e := rmsError(got, tensor.Conv(a, w, cc)); e > 0.1 {
				t.Errorf("%s: noiseless relative RMS error %.4f, want <= 0.1", tc.name, e)
			}
		}
	})
}

// liveTapShape is one of the layer shapes the live-tap rule re-routes,
// as resnet-cnn runs them. Z*L is not a multiple of Nm, and a group
// that loses one unit needs more steps for its slots.
type liveTapShape struct {
	name                            string
	z, ay, ax, m, k, stride, pad, l int
}

func liveTapShapes() []liveTapShape {
	return []liveTapShape{
		{name: "1x1-stride2", z: 44, ay: 6, ax: 7, m: 13, k: 1, stride: 2, l: 1},
		{name: "padding-only", z: 70, ay: 1, ax: 1, m: 13, k: 3, stride: 1, pad: 1, l: 1},
		{name: "four-live-taps", z: 17, ay: 2, ax: 2, m: 13, k: 3, stride: 2, pad: 1, l: 4},
	}
}

// layer is the shape as the model describes it.
func (tc liveTapShape) layer() nn.Layer {
	return nn.Layer{Kind: nn.Conv, InZ: tc.z, InY: tc.ay, InX: tc.ax, OutZ: tc.m, KY: tc.k, KX: tc.k, Stride: tc.stride, Pad: tc.pad}
}

// run executes the shape's kernels shard owns on c.
func (tc liveTapShape) run(c *Chip, shard ShardSpec) {
	a := tensor.RandomVolume(tc.z, tc.ay, tc.ax, 721)
	w := tensor.RandomKernels(tc.m, tc.z, tc.k, tc.k, 722)
	cc := tensor.ConvConfig{Stride: tc.stride, Pad: tc.pad}
	out := tensor.NewVolume(tc.m, tensor.ConvOutputDim(tc.ay, tc.k, tc.pad, tc.stride), tensor.ConvOutputDim(tc.ax, tc.k, tc.pad, tc.stride))
	c.ConvShard(a, w, cc, false, shard, out)
}

// TestObservedLiveTapActivityMatchesClosedForm holds the device
// counters of the re-routed shapes to the closed form with zero
// tolerance, on a healthy chip and with one unit quarantined (whose
// group then aggregates its slots two units at a time).
// TestShardWindowActivitySumsToLayer sums them over shard windows.
func TestObservedLiveTapActivityMatchesClosedForm(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	for _, tc := range liveTapShapes() {
		want := cfg.ExpectedActivity(tc.layer())
		s := cfg.schedule(tc.layer())[0]
		_, tiles, _, runs := s.loop(cfg)
		passes, slots := tiles*runs, int64(s.lay.z)
		if wantSlots := int64((tc.z*tc.l + cfg.Nm - 1) / cfg.Nm); slots != wantSlots {
			t.Fatalf("%s: %d slots per pass, want ceil(Z*L/Nm) = %d", tc.name, slots, wantSlots)
		}
		whole := func(c *Chip) { tc.run(c, ShardSpec{}) }
		if got := observe(NewChip(cfg), whole); got != want {
			t.Errorf("%s healthy: observed %+v, want %+v", tc.name, got, want)
		}

		// One quarantined unit: group 1 aggregates 2 slots per step.
		c := NewChip(cfg)
		mustQuarantine(c, 1, 0)
		q := want
		q.Steps = 0
		for m := 0; m < tc.m; m++ {
			q.Steps += passes * ceilDiv(slots, int64(c.groups[c.activeGroup(m)].Capacity()))
		}
		q.ADCConversions = q.Steps * int64(cfg.Nd)
		if q.Steps == want.Steps {
			t.Fatalf("%s: the quarantined unit does not change the step count; pick a deeper shape", tc.name)
		}
		if got := observe(c, whole); got != q {
			t.Errorf("%s quarantined: observed %+v, want %+v", tc.name, got, q)
		}
	}
}
