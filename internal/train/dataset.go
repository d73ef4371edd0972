package train

import (
	"math"
	"math/rand"

	"albireo/internal/tensor"
)

// SyntheticDataset generates a procedural 3-class image set:
// horizontal stripes, vertical stripes, and checkerboards, each with
// random phase, stripe period, and additive noise. The classes are
// linearly inseparable in pixel space but trivially separable for a
// small CNN - exactly what an accelerator accuracy study needs.
//
// Images are single-channel size x size with values in [0, 1]
// (non-negative, as the optical power encoding requires).
func SyntheticDataset(n, size int, seed int64) ([]*tensor.Volume, []int) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Volume, n)
	labels := make([]int, n)
	for i := range xs {
		class := rng.Intn(3)
		labels[i] = class
		xs[i] = synthImage(class, size, rng)
	}
	return xs, labels
}

// synthImage draws one image of the given class.
func synthImage(class, size int, rng *rand.Rand) *tensor.Volume {
	period := 2 + rng.Intn(3) // 2..4 pixel stripes
	phase := rng.Intn(period * 2)
	noise := 0.15
	v := tensor.NewVolume(1, size, size)
	v.Fill(func(_, y, x int) float64 {
		var on bool
		switch class {
		case 0: // horizontal stripes
			on = ((y+phase)/period)%2 == 0
		case 1: // vertical stripes
			on = ((x+phase)/period)%2 == 0
		default: // checkerboard
			on = (((y+phase)/period)+((x+phase)/period))%2 == 0
		}
		base := 0.15
		if on {
			base = 0.85
		}
		return clamp01(base + rng.NormFloat64()*noise)
	})
	return v
}

func clamp01(x float64) float64 {
	return math.Min(math.Max(x, 0), 1)
}
