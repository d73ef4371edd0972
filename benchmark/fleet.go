package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"albireo/internal/fleet"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/nn"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// The serving configuration albireo-serve runs by default.
const (
	servePool   = 2
	serveSeed   = 1
	serveSize   = 12
	serveBudget = 0.5
	tickEvery   = 2 * time.Millisecond
)

// The serve-fleet traffic: open-loop Poisson arrivals at openRate.
// gemmShare of requests are /v1/gemm-shaped products against one of
// gemmWeights weight sets; the rest are /v1/infer-shaped inferences.
const (
	openRate    = 120.0
	gemmShare   = 0.2
	gemmWeights = 4
	gemmRows    = 16
	gemmInner   = 64
	gemmCols    = 32
	// lateAfter is how late an arrival may be sent before it counts as
	// generator lag.
	lateAfter = time.Millisecond
	// refGap is the least wait before the next arrival in which the
	// generator times the reference kernel: several times the kernel's
	// length, so that timing it rarely delays an arrival.
	refGap = 3 * time.Millisecond
)

// serveGEMM describes one /v1/gemm-shaped request to the performance
// model.
var serveGEMM = nn.Layer{Name: "gemm", Kind: nn.GEMM, InZ: gemmInner, InY: 1, InX: gemmRows, OutZ: gemmCols, KY: 1, KX: 1}

// fleetInstance is the serving pool with its journal and wall ticker.
type fleetInstance struct {
	seed  int64
	reg   *obs.Registry
	tiny  cnn
	vols  []*tensor.Volume
	gemmA []*tensor.Matrix
	gemmB []*tensor.Matrix

	sched      *fleet.Scheduler
	jrn        *journal.Async
	jdir       string
	stopTicker func()
	shutdown   sync.Once
	closeErr   error

	cores []*coreProbe
	// tr is the tracer of the current traced pass (nil when untraced);
	// links maps the input operand of every in-flight traced fleet op
	// to its span, so the worker-side span can name its parent.
	tr     atomic.Pointer[tracer]
	links  sync.Map
	issued atomic.Int64
	reqs   atomic.Int64
	round  int64
	ref    *refKernel // timed by the arrival generator
}

// opLink locates the span of a fleet op for the worker executing it.
type opLink struct{ id, req int64 }

// setupFleet builds the pool as albireo-serve does - BuildUnits, a
// fresh fsync'd journal, startup BIST - starts the linger ticker, and
// serves one request of each kind per worker untimed.
func setupFleet(seed int64, workDir string) (inst instance, info setupInfo, err error) {
	f := &fleetInstance{seed: seed, reg: obs.NewRegistry(), tiny: tinyCNN(serveSize, serveSeed), stopTicker: func() {}, ref: newRefKernel()}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < inputs; i++ {
		f.vols = append(f.vols, tensor.RandomVolume(3, serveSize, serveSize, rng.Int63()))
		f.gemmA = append(f.gemmA, tensor.RandomMatrix(gemmRows, gemmInner, rng.Int63()))
	}
	for i := 0; i < gemmWeights; i++ {
		f.gemmB = append(f.gemmB, tensor.RandomMatrix(gemmInner, gemmCols, rng.Int63()))
	}

	trace := obs.NewTrace()
	spec := fleet.PoolSpec{Pool: servePool, Seed: serveSeed, Budget: serveBudget, KeepDegraded: true}
	units, guards, err := fleet.BuildUnits(spec, f.reg, trace)
	if err != nil {
		return nil, info, err
	}
	for i := range units {
		cp := &coreProbe{inner: guards[i].Backend}
		guards[i].Backend = cp
		f.cores = append(f.cores, cp)
		units[i].Backend = &execProbe{inner: units[i].Backend, core: cp, f: f}
	}

	if err := os.MkdirAll(workDir, 0o777); err != nil {
		return nil, info, err
	}
	if f.jdir, err = os.MkdirTemp(workDir, "journal-"); err != nil {
		return nil, info, err
	}
	hdr := journal.Header{Pool: servePool, Seed: serveSeed, Size: serveSize, Budget: serveBudget, KeepDegraded: true}
	jw, err := journal.Create(f.jdir, hdr, journal.Options{})
	if err != nil {
		return nil, info, err
	}
	f.jrn = journal.NewAsync(jw, 0).Instrument(f.reg, trace)
	f.jrn.Start()
	for i, g := range guards {
		worker := int64(i)
		g.FallbackHook = func(kind string) {
			op := journal.OpConv
			switch kind {
			case "fc":
				op = journal.OpFC
			case "gemm":
				op = journal.OpGEMM
			}
			f.jrn.Record(journal.KindFallback, journal.EncodeFallback(journal.Fallback{Worker: worker, Op: op}))
		}
	}

	opt := fleet.Options{
		MaxBatch: 8, QueueDepth: 64, MaxLinger: 1,
		ReprobeEvery: int(5 * time.Second / tickEvery),
		KeepDegraded: true, Journal: f.jrn,
	}
	if f.sched, err = fleet.New(opt, units...); err != nil {
		return nil, info, err
	}
	f.sched.Instrument(f.reg, trace)
	t0 := time.Now()
	if err := f.sched.Start(); err != nil {
		return nil, info, err
	}
	info.bist = time.Since(t0)
	f.startTicker()

	for i := 0; i < servePool; i++ {
		if !f.serve(false, i, nil) || !f.serve(true, i, nil) {
			return nil, info, errors.New("serve-fleet: warm-up request failed")
		}
	}
	return f, info, nil
}

// startTicker drives the scheduler's linger clock from a wall timer,
// as albireo-serve does.
func (f *fleetInstance) startTicker() {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				f.sched.Tick()
			case <-stop:
				return
			}
		}
	}()
	f.stopTicker = func() {
		close(stop)
		<-done
	}
}

// serve sends one request and reports whether it succeeded: a GEMM
// against weight set idx, or an inference of input idx, each on a
// fresh copy of its operands as a decoded HTTP body would be.
func (f *fleetInstance) serve(gemm bool, idx int, sc *scope) bool {
	ctx := context.Background()
	ok := false
	sc.span("bench/request", func() {
		if gemm {
			a := f.gemmA[idx%inputs].Clone()
			b := f.gemmB[idx%gemmWeights].Clone()
			var out *tensor.Matrix
			var err error
			f.op(sc, a, func() { out, err = f.sched.GEMMAsyncOp(ctx, journal.OpGEMM, a, b, false).Matrix() })
			ok = err == nil && out.R == gemmRows && out.C == gemmCols && finite(out.Data)
			return
		}
		bound := f.sched.Bind(ctx)
		var logits []float64
		sc.span("inference/run", func() { logits = f.tiny.net.Run(&opProbe{inner: bound, sc: sc, f: f}, f.vols[idx%inputs].Clone()) })
		ok = bound.Err() == nil && len(logits) == 10 && finite(logits)
	})
	return ok
}

// op submits one fleet op through call, counting it as issued and,
// when traced, linking its input operand to its span.
func (f *fleetInstance) op(sc *scope, operand any, call func()) {
	f.issued.Add(1)
	if sc == nil {
		call()
		return
	}
	sc.span("fleet/op", func() {
		f.links.Store(operand, opLink{id: sc.stack[len(sc.stack)-1], req: sc.req})
		call()
		f.links.Delete(operand)
	})
}

// newScope starts the trace scope of one request (nil when untraced).
func (f *fleetInstance) newScope(tr *tracer) *scope {
	if tr == nil {
		return nil
	}
	return &scope{tr: tr, req: f.reqs.Add(1)}
}

func (f *fleetInstance) measure(d time.Duration, tr *tracer) phase {
	f.tr.Store(tr)
	defer f.tr.Store(nil)
	f.round++
	return f.openLoop(d, f.seed*7919+f.round, tr)
}

// openLoop sends requests on a Poisson schedule from one goroutine
// that sleeps until each arrival is due; each request runs on its own
// goroutine, so a slow pool cannot delay later arrivals. Latency is
// timed from when the request was due. While the next arrival is at
// least refGap away, the generator times the reference kernel; each
// request is paired with the last reference time before it was due.
func (f *fleetInstance) openLoop(d time.Duration, seed int64, tr *tracer) phase {
	var ph phase
	due := poissonSchedule(openRate, d, seed)
	mix := rand.New(rand.NewSource(seed + 1))
	lat := make([]float64, len(due))
	refOf := make([]float64, len(due))
	ok := make([]bool, len(due))
	var wg sync.WaitGroup
	ref := f.ref.time()
	ph.ref = append(ph.ref, ref)
	start := time.Now()
	for i, at := range due {
		when := start.Add(at)
		if time.Until(when) >= refGap {
			ref = f.ref.time()
			ph.ref = append(ph.ref, ref)
		}
		refOf[i] = ref
		time.Sleep(time.Until(when))
		if time.Since(when) > lateAfter {
			ph.late++
		}
		gemm, idx, sc := mix.Float64() < gemmShare, mix.Intn(inputs*gemmWeights), f.newScope(tr)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok[i] = f.serve(gemm, idx, sc)
			lat[i] = msSince(when)
		}(i)
	}
	wg.Wait()
	// Completions per second from the first due time to the last
	// completion: the offered rate while the pool keeps up, less once a
	// backlog outlasts the schedule.
	ph.throughput = float64(len(due)) / time.Since(start).Seconds()
	for i := range due {
		if !ok[i] {
			ph.failed++
		}
		ph.norm = append(ph.norm, lat[i]/refOf[i])
	}
	ph.attempted, ph.lat = len(due), lat
	return ph
}

func (f *fleetInstance) registry() *obs.Registry { return f.reg }

// hw weights the modeled cost of the two request kinds by the mix.
func (f *fleetInstance) hw() (cycles, energyNJ float64) {
	tc, te := modeledCost(f.tiny.model)
	gc, ge := modeledCost(nn.Model{Name: "gemm", Layers: []nn.Layer{serveGEMM}})
	return (1-gemmShare)*tc + gemmShare*gc, (1-gemmShare)*te + gemmShare*ge
}

// check runs the fidelity pass through the pool, shuts it down, and
// checks the serving invariants: every issued op was admitted or shed,
// every admitted op completed, and the journal holds every record it
// accepted, dropped none, and verifies end to end.
func (f *fleetInstance) check() ([]float64, error) {
	fid := &fidelity{}
	for _, cp := range f.cores {
		cp.fid.Store(fid)
	}
	// Served layers are small, so the pass samples more requests than
	// the simulator workloads do.
	for i := 0; i < 4*checks; i++ {
		if !f.serve(false, i, nil) || !f.serve(true, i, nil) {
			return nil, errors.New("serve-fleet: fidelity-pass request failed")
		}
	}
	for _, cp := range f.cores {
		cp.fid.Store(nil)
	}
	if err := f.stop(); err != nil {
		return nil, err
	}
	s := f.reg.Snapshot()
	issued, admitted, shed := f.issued.Load(), s.Counters[fleet.MetricAdmitted], s.Counters[fleet.MetricShed]
	if admitted+shed != issued {
		return nil, fmt.Errorf("serve-fleet: admitted %d + shed %d != issued %d", admitted, shed, issued)
	}
	if done := s.Counters[fleet.MetricCompleted]; done != admitted {
		return nil, fmt.Errorf("serve-fleet: completed %d != admitted %d", done, admitted)
	}
	if st := f.jrn.Status(); st.Dropped != 0 || st.Degraded {
		return nil, fmt.Errorf("serve-fleet: journal dropped %d record(s), degraded=%v", st.Dropped, st.Degraded)
	}
	snap, err := journal.Verify(f.jdir)
	if err != nil {
		return nil, fmt.Errorf("serve-fleet: journal verify: %w", err)
	}
	if appended := s.Counters[journal.MetricAppended]; int64(snap.Count) != appended+1 {
		return nil, fmt.Errorf("serve-fleet: journal holds %d records, want %d appended + header", snap.Count, appended)
	}
	return fid.values(), nil
}

// close stops the pool and deletes its journal.
func (f *fleetInstance) close() error {
	err := f.stop()
	if f.jdir != "" {
		err = errors.Join(err, os.RemoveAll(f.jdir))
	}
	return err
}

// stop stops the ticker, drains the pool, and seals the journal, once.
func (f *fleetInstance) stop() error {
	f.shutdown.Do(func() {
		f.stopTicker()
		if f.sched != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			f.closeErr = f.sched.Close(ctx)
		}
		if f.jrn != nil {
			f.closeErr = errors.Join(f.closeErr, f.jrn.Close())
		}
	})
	return f.closeErr
}

// opProbe is the fleet-bound backend of one traced or counted request:
// each layer op is one fleet op.
type opProbe struct {
	inner inference.Backend
	sc    *scope
	f     *fleetInstance
}

func (p *opProbe) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	var out *tensor.Volume
	p.f.op(p.sc, a, func() { out = p.inner.Conv(a, w, cfg, relu) })
	return out
}

func (p *opProbe) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	var out []float64
	p.f.op(p.sc, a, func() { out = p.inner.FullyConnected(a, w, relu) })
	return out
}

func (p *opProbe) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	var out *tensor.Matrix
	p.f.op(p.sc, a, func() { out = p.inner.GEMM(a, b, relu) })
	return out
}

func (p *opProbe) Name() string { return p.inner.Name() }

// execProbe wraps one pool unit's backend on its worker goroutine.
// During a traced pass it times each execution as a fleet/exec span
// under the fleet op that submitted it, and points the unit's core
// probe at that span.
type execProbe struct {
	inner inference.Backend
	core  *coreProbe
	f     *fleetInstance
}

func (p *execProbe) exec(operand any, call func()) {
	tr := p.f.tr.Load()
	if tr == nil {
		call()
		return
	}
	l, linked := p.f.links.Load(operand)
	if !linked {
		call()
		return
	}
	link := l.(opLink)
	sc := &scope{tr: tr, req: link.req, stack: []int64{link.id}}
	p.core.sc = sc
	sc.span("fleet/exec", call)
	p.core.sc = nil
}

func (p *execProbe) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	var out *tensor.Volume
	p.exec(a, func() { out = p.inner.Conv(a, w, cfg, relu) })
	return out
}

func (p *execProbe) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	var out []float64
	p.exec(a, func() { out = p.inner.FullyConnected(a, w, relu) })
	return out
}

func (p *execProbe) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	var out *tensor.Matrix
	p.exec(a, func() { out = p.inner.GEMM(a, b, relu) })
	return out
}

func (p *execProbe) Name() string { return p.inner.Name() }
