package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"albireo/internal/obs"
)

// Kernel lanes: the host-side mirror of Albireo's Ng PLCGs applying
// different kernels to one broadcast input at the same time (Figure
// 6a, Algorithm 2).
//
// Every layer loop hands its per-kernel work to forEachKernel, which
// splits the kernels across host cores by active-group position: one
// lane runs all of a position's kernels in ascending m. A position is
// exactly one PLCG, and each PLCG owns its PLCU noise streams and its
// conv scratch, so every group sees the same kernel sequence - and
// draws the same noise - as the sequential loop. The result is
// bit-identical however many lanes run.
//
// The helper lanes are a fixed pool started once, at package init,
// and parked on laneOffers between layers: dispatch starts no
// goroutine, allocates nothing, and a helper busy with another chip's
// layer is simply not offered this one (the caller always runs a lane
// itself, so a layer never waits for a helper to free up).

// kernelBody is a layer's per-index work: run kernel m (an output
// channel, depthwise channel, FC neuron or GEMM output column) on its
// owning PLCG, or fill input channel m's row sets. Implementations are
// chip-owned values, so passing one to fanOut does not allocate.
type kernelBody interface {
	kernel(m int)
}

// laneJob is one layer's kernel loop as the lanes share it. It is
// chip-owned and reused for every layer; a chip runs one layer at a
// time.
type laneJob struct {
	wg sync.WaitGroup
	// next is the next unclaimed active-group position.
	next  atomic.Int64
	width int
	n     int
	shard ShardSpec
	body  kernelBody
}

// laneHelpers is the size of the helper pool: one fewer than the
// GOMAXPROCS the process started with, because the dispatching
// goroutine is always a lane too.
var laneHelpers = runtime.GOMAXPROCS(0) - 1

// laneOffers parks the helper pool. It is unbuffered, so an offer
// succeeds only when a helper is idle and waiting.
var laneOffers = make(chan *laneJob)

func init() {
	for i := 0; i < laneHelpers; i++ {
		//lint:ignore goroutine-hygiene process-lifetime worker pool parked on laneOffers; each job it takes is joined through the job's WaitGroup
		go laneHelper()
	}
}

// laneHelper runs offered jobs for the life of the process.
func laneHelper() {
	for j := range laneOffers {
		j.run()
		j.wg.Done()
	}
}

// run claims group positions until none remain and runs each one's
// kernels in ascending m.
func (j *laneJob) run() {
	for pos := int(j.next.Add(1) - 1); pos < j.width; pos = int(j.next.Add(1) - 1) {
		for m := pos; m < j.n; m += j.width {
			if j.shard.Owns(m) {
				j.body.kernel(m)
			}
		}
	}
}

// forEachKernel runs body.kernel(m) for every kernel m < n the shard
// owns, one lane per active-group position (see fanOut). With
// instruments attached, a sequential pre-pass in kernel order first
// does the remap accounting and emits the tile events, so the trace is
// the same whatever the lane count; the bodies themselves use
// activeGroup and emit no events.
//
// hot: layer dispatch; runs once per layer and must not allocate.
func (c *Chip) forEachKernel(sp *obs.Span, n int, shard ShardSpec, body kernelBody) {
	if c.ins != nil {
		for m := 0; m < n; m++ {
			if shard.Owns(m) {
				c.ins.tile(sp, m, c.assignGroup(m))
			}
		}
	}
	c.fanOut(len(c.active), n, shard, body)
}

// fillPlan runs the row-plan fill body (receptiveFill) for every index
// < n before a layer's kernels fan out. Each index fills its own sets,
// so the fills spread over every lane and give the same bits in any
// order.
//
// hot: layer dispatch; runs once per layer and must not allocate.
func (c *Chip) fillPlan(n int, body kernelBody) {
	c.fanOut(n, n, ShardSpec{}, body)
}

// fanOut runs body.kernel(m) for every m < n the shard owns, with lane
// positions 0..width-1: one lane runs all of a position's indices
// m = pos, pos+width, ... in ascending order. With one lane (one
// usable core, one position, or one index) the loop is plain and
// sequential; otherwise idle helpers are offered the job with
// non-blocking sends and the caller runs a lane itself.
//
// hot: layer dispatch; must not allocate.
func (c *Chip) fanOut(width, n int, shard ShardSpec, body kernelBody) {
	lanes := min(runtime.GOMAXPROCS(0), laneHelpers+1, width, n)
	if lanes <= 1 {
		for m := 0; m < n; m++ {
			if shard.Owns(m) {
				body.kernel(m)
			}
		}
		return
	}
	j := &c.lanes
	j.width, j.n, j.shard, j.body = width, n, shard, body
	j.next.Store(0)
	for i := 1; i < lanes; i++ {
		j.wg.Add(1)
		select {
		case laneOffers <- j:
			continue
		default:
		}
		// Every helper is busy (with another chip's layer): the
		// lanes already running take the remaining positions.
		j.wg.Done()
		break
	}
	j.run()
	j.wg.Wait()
	j.body = nil
}
