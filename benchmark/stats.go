package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The tolerance keeps decimal percentiles such as 99.9 from
	// rounding up a rank that is exact on paper.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// samplesBeyond counts the samples strictly above the nearest-rank
// p-th percentile of n samples: how many observations a tail reading
// rests on.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentile returns the highest percentile of the ladder
// 50, 90, 95, 99, 99.9 with at least ten samples beyond it in n
// samples, or 50 when even the median has fewer.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the three cut points of xs computed exactly as
// Python's statistics.quantiles(xs, n=4) does with its default
// "exclusive" method, which the spread rule in README.md is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// poissonSchedule returns the send times of an open-loop Poisson
// arrival process at rate per second over d: exponential gaps from a
// private stream seeded by seed, so the schedule exists before the
// system under test runs and is the same for the same seed.
func poissonSchedule(rate float64, d time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := rng.ExpFloat64() / rate
	for t < d.Seconds() {
		out = append(out, time.Duration(t*float64(time.Second)))
		t += rng.ExpFloat64() / rate
	}
	return out
}
