package main

import (
	"math"
	"time"
)

// The reference kernel is a fixed piece of single-threaded CPU work
// that lives in this directory, so no change to the simulator alters
// it. The benchmark times it next to every request and reports latency
// in units of its time. The host is a shared virtual machine whose
// speed drifts by up to a factor of two for whole runs, and those
// drifts slow the kernel and the requests alike, so the ratio cancels
// most of them; see README.md for the measurements.
//
// Its loop has the shape of the chip's analog inner loop (a signed dot
// product per column with crosstalk from the other columns and a noise
// draw), so it slows under the same kinds of interference.
const (
	refCols = 16
	refTaps = 9
	// refReps sets the kernel's length: 0.8 to 1.5 ms on the machine of
	// the README's baseline, under 1% of a simulator request.
	refReps = 300
)

// refKernel holds the kernel's fixed operands. Each instance owns one
// and uses it from one goroutine at a time.
type refKernel struct {
	xtalk   [refCols * refCols]float64
	channel [refTaps][refCols]int
	acts    [refTaps][refCols]float64
	weights [refTaps]float64
	state   uint64  // xorshift state of the noise draws
	sum     float64 // keeps the work from being optimised away
}

func newRefKernel() *refKernel {
	k := &refKernel{state: 88172645463325252}
	for i := range k.xtalk {
		k.xtalk[i] = 1e-3 * k.uniform()
	}
	for t := 0; t < refTaps; t++ {
		k.weights[t] = 2*k.uniform() - 1
		for d := 0; d < refCols; d++ {
			k.channel[t][d] = (7*t + 3*d) % refCols
			k.acts[t][d] = k.uniform()
		}
	}
	return k
}

// uniform draws from [0, 1).
func (k *refKernel) uniform() float64 {
	k.state ^= k.state << 13
	k.state ^= k.state >> 7
	k.state ^= k.state << 17
	return float64(k.state>>11) / (1 << 53)
}

// time runs the kernel once and returns its wall time in milliseconds.
func (k *refKernel) time() float64 {
	t0 := time.Now()
	for rep := 0; rep < refReps; rep++ {
		for d := 0; d < refCols; d++ {
			var pos, neg float64
			for t := 0; t < refTaps; t++ {
				w := k.weights[t]
				mag := math.Abs(w)
				sig := mag * k.acts[t][d]
				own := k.channel[t][d] * refCols
				for dp := 0; dp < refCols; dp++ {
					if dp != d {
						sig += k.xtalk[own+k.channel[t][dp]] * mag * k.acts[t][dp]
					}
				}
				if w > 0 {
					pos += sig
				} else {
					neg += sig
				}
			}
			k.sum += pos - neg + 1e-3*(k.uniform()-0.5)
		}
	}
	return msSince(t0)
}
