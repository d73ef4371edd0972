// Command albireo-serve is the inference front end: it owns a fleet of
// analog chips (internal/fleet) and serves requests onto them, while
// exposing the simulator's observability surface over HTTP -
// Prometheus-format device-activity metrics, the structured event
// trace, per-worker BIST health, liveness/readiness probes, and the
// standard pprof handlers.
//
// On startup it builds -pool chips (each seeded distinctly), optionally
// injects faults into worker 0 (-detune), and starts the fleet: every
// chip gets a BIST scan, faulty workers are drained from the routing
// set, and the survivors serve. Inference arrives two ways:
//
//   - POST /v1/infer with a JSON tensor {"z":3,"y":12,"x":12,
//     "data":[...]} returns the served model's logits and top-1 class.
//     Requests coalesce into micro-batches (-batch, -linger), the
//     admission queue is bounded (-queue), and overload sheds with 503.
//   - POST /v1/gemm with {"op":"gemm","a":{"r":4,"c":16,"data":[...]},
//     "b":{"r":16,"c":8,"data":[...]},"relu":false} runs one dense
//     matrix product on the pool and returns the result matrix. The op
//     tag ("gemm", "lstm", or "attention") is recorded in the journal
//     so replay and telemetry keep workload attribution.
//   - -sweeps runs the built-in load generator (fleet.Sweep) through
//     the pool at startup so the endpoints have telemetry to show.
//
// With -addr "" it skips listening and prints the metrics (or, with
// -bist, the per-worker BIST health JSON) to stdout, which is the
// scriptable/CI mode:
//
//	albireo-serve -addr :8080            # serve http://localhost:8080/v1/infer
//	albireo-serve -addr "" -sweeps 1     # one sweep, metrics to stdout
//	albireo-serve -addr "" -bist         # per-worker BIST JSON to stdout
//	albireo-serve -pool 4 -linger 1ms    # 4 chips, 1ms batch linger
//	albireo-serve -detune "0,0,4,2,0.4"  # worker 0 starts with a detuned ring
//
// The server shuts down gracefully on SIGINT/SIGTERM: the readiness
// probe flips to 503, in-flight requests drain (bounded by -drain), the
// fleet flushes its pending batches, and only then does the process
// exit. /healthz stays 200 while the fleet is degraded (the pool is
// alive and serving around the drained workers) but reports the
// degradation; /readyz reflects serving state.
//
// All simulation telemetry is cycle/event-denominated and
// deterministic; wall time exists only here at the cmd boundary - the
// uptime gauge reads the injected obs.Clock, and the fleet's batch
// linger is advanced by a wall ticker calling Scheduler.Tick (tests
// tick the scheduler directly).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"albireo/internal/fleet"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "albireo-serve:", err)
		os.Exit(1)
	}
}

// handlerTimeout bounds each data-endpoint request; pprof handlers are
// exempt (profiles legitimately run long).
const handlerTimeout = 10 * time.Second

// maxInferBody bounds a /v1/infer request body.
const maxInferBody = 8 << 20

// reprobeInterval is roughly how often drained workers are re-scanned
// for return-to-service (rounded to whole linger ticks).
const reprobeInterval = 5 * time.Second

// run is the whole tool behind a single exit point so tests can drive
// it end to end.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("albireo-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", `listen address; "" runs the sweeps and prints to stdout instead of serving`)
	pool := fs.Int("pool", 2, "number of chip workers in the fleet")
	queue := fs.Int("queue", 64, "admission queue depth; submissions past it shed with 503")
	batch := fs.Int("batch", 8, "max requests coalesced into one micro-batch")
	linger := fs.Duration("linger", 2*time.Millisecond, "max time a partial batch waits for more compatible requests, only while every eligible chip is busy; 0 dispatches immediately")
	sweeps := fs.Int("sweeps", 1, "load-generator sweeps to run through the fleet at startup")
	sweepBatch := fs.Int("sweep-batch", 2, "inputs per load-generator sweep")
	size := fs.Int("size", 12, "served model input spatial size")
	seed := fs.Int64("seed", 1, "weight/input seed (worker i's chip uses seed+i)")
	budget := fs.Float64("budget", 0.5, "accuracy-guard relative divergence budget per layer")
	detune := fs.String("detune", "", `inject faults into worker 0 before the BIST scan: "group,unit,tap,column,residual[,driftPerCycle]", semicolon-separated`)
	keepDegraded := fs.Bool("keep-degraded", true, "keep faulty workers serving on their surviving units at reduced weight; false drains the whole worker")
	shard := fs.Bool("shard", false, "fan each layer's output kernels out across the pool at the kernel-group boundary and merge (pool >= 2): lower single-inference latency, bit-identical outputs")
	bist := fs.Bool("bist", false, `with -addr "": print the per-worker BIST health JSON instead of metrics`)
	journalDir := fs.String("journal", "", "append a hash-chained request journal under this directory (created if absent; reopened with crash recovery if it already holds one)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pool < 1 {
		return fmt.Errorf("pool must be >= 1, got %d", *pool)
	}
	if *queue < 1 {
		return fmt.Errorf("queue must be >= 1, got %d", *queue)
	}
	if *batch < 1 {
		return fmt.Errorf("batch must be >= 1, got %d", *batch)
	}
	if *linger < 0 {
		return fmt.Errorf("linger must be >= 0, got %v", *linger)
	}
	if *sweepBatch < 1 {
		return fmt.Errorf("sweep-batch must be >= 1, got %d", *sweepBatch)
	}
	if *size < 8 {
		return fmt.Errorf("size must be >= 8, got %d", *size)
	}
	if *sweeps < 0 {
		return fmt.Errorf("sweeps must be >= 0, got %d", *sweeps)
	}
	if *budget <= 0 {
		return fmt.Errorf("budget must be > 0, got %g", *budget)
	}

	reg := obs.NewRegistry()
	trace := obs.NewTrace()

	// Build the pool: each worker is an accuracy-guarded, observed
	// analog backend on its own distinctly seeded chip. Chip activity
	// counters share the registry and sum fleet-wide. The PoolSpec is
	// exactly what the journal header records, so albireo-replay can
	// rebuild this pool bit-identically.
	spec := fleet.PoolSpec{
		Pool:         *pool,
		Seed:         *seed,
		Budget:       *budget,
		Detune:       *detune,
		KeepDegraded: *keepDegraded,
	}
	units, guards, err := fleet.BuildUnits(spec, reg, trace)
	if err != nil {
		return err
	}

	// Journaling: the chain is created fresh or reopened with crash
	// recovery; flags must match the recorded header, or the chain
	// would stop being replayable against one pool.
	var jrn *journal.Async
	if *journalDir != "" {
		hdr := journal.Header{
			Pool:         int64(*pool),
			Seed:         *seed,
			Size:         int64(*size),
			Budget:       *budget,
			KeepDegraded: *keepDegraded,
			Detune:       *detune,
		}
		jw, err := openJournal(*journalDir, hdr, out)
		if err != nil {
			return err
		}
		jrn = journal.NewAsync(jw, 0).Instrument(reg, trace)
		jrn.Start()
		// Guarded fallbacks happen inside the backend, invisible to the
		// scheduler; each worker's guard journals them directly.
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
				jrn.Record(journal.KindFallback, journal.Encode(journal.Fallback{Worker: worker, Op: op}))
			}
		}
	}

	// Linger is denominated in ticks inside the fleet; the wall ticker
	// below advances one tick per -linger period, so MaxLinger 1 tick
	// realizes the flag. Stdout mode runs no ticker and dispatches
	// immediately.
	opt := fleet.Options{MaxBatch: *batch, QueueDepth: *queue, KeepDegraded: *keepDegraded, Shard: *shard, Journal: jrn}
	tickEvery := *linger
	if *addr != "" {
		if tickEvery > 0 {
			opt.MaxLinger = 1
		} else {
			tickEvery = 100 * time.Millisecond // reprobe-only ticks
		}
		opt.ReprobeEvery = int(reprobeInterval / tickEvery)
		if opt.ReprobeEvery < 1 {
			opt.ReprobeEvery = 1
		}
	}
	// sealJournal drains and closes the journal; every exit path after
	// this point runs it exactly once (it is idempotent).
	sealJournal := func() error {
		if jrn == nil {
			return nil
		}
		if err := jrn.Close(); err != nil {
			return fmt.Errorf("journal close: %w", err)
		}
		st := jrn.Status()
		fmt.Fprintf(out, "albireo-serve: journal sealed at seq %d (degraded=%v)\n", st.HeadSeq, st.Degraded)
		return nil
	}

	sched, err := fleet.New(opt, units...)
	if err != nil {
		sealJournal()
		return err
	}
	sched.Instrument(reg, trace)
	if err := sched.Start(); err != nil {
		sealJournal()
		return err
	}
	for _, wi := range sched.Info() {
		if !wi.InService {
			fmt.Fprintf(out, "albireo-serve: BIST drained worker %d (%d finding(s))\n", wi.Worker, len(wi.Report.Findings))
		} else if wi.Degraded {
			fmt.Fprintf(out, "albireo-serve: worker %d serving degraded (weight %d)\n", wi.Worker, wi.Weight)
		}
	}

	// The wall ticker is the fleet's clock: one Tick per period drives
	// batch linger and re-probe scheduling. It lives only here at the
	// cmd boundary, and it must spin up before the startup sweeps:
	// server-mode linger is denominated in ticks, so a sweep dispatched
	// into a tickless scheduler would wait on its partial batch forever
	// and the listener would never come up. Stdout mode dispatches
	// immediately (MaxLinger 0) and runs no ticker.
	stopTicker := func() {}
	if *addr != "" {
		tickerDone := make(chan struct{})
		tickerStop := make(chan struct{})
		ticker := time.NewTicker(tickEvery)
		go func() {
			defer close(tickerDone)
			for {
				select {
				case <-ticker.C:
					sched.Tick()
				case <-tickerStop:
					return
				}
			}
		}()
		stopTicker = func() {
			ticker.Stop()
			close(tickerStop)
			<-tickerDone
		}
	}

	// Load generation through the fleet: sequential, so stdout-mode
	// telemetry is deterministic.
	bound := sched.Bind(ctx)
	if err := fleet.Sweeps(ctx, bound, *sweeps, *sweepBatch, *size, *seed); err != nil {
		stopTicker()
		sched.Close(context.Background())
		sealJournal()
		return err
	}
	if err := bound.Err(); err != nil {
		stopTicker()
		sched.Close(context.Background())
		sealJournal()
		return fmt.Errorf("startup sweeps: %w", err)
	}

	if *addr == "" {
		if err := sched.Close(ctx); err != nil {
			sealJournal()
			return err
		}
		// Seal before printing metrics so the journal counters are
		// settled and the stdout telemetry stays deterministic.
		if err := sealJournal(); err != nil {
			return err
		}
		if *bist {
			raw, err := json.MarshalIndent(bistDoc{Workers: sched.Info()}, "", "  ")
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(out, "%s\n", raw)
			return err
		}
		return reg.WritePrometheus(out)
	}

	clock := obs.WallClock{}
	st := &serveState{
		reg:        reg,
		trace:      trace,
		clock:      clock,
		start:      clock.Now(),
		fleet:      sched,
		journal:    jrn,
		model:      inference.TinyCNN(3, *size, *seed),
		inZ:        3,
		size:       *size,
		inferTicks: reg.Histogram("albireo_serve_infer_ticks", obs.LatencyBuckets),
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		stopTicker()
		sched.Close(context.Background())
		sealJournal()
		return err
	}

	fmt.Fprintf(out, "albireo-serve listening on %s (pool %d; endpoints: /v1/infer /v1/gemm /metrics /trace /bist /journal /healthz /readyz /debug/pprof/)\n", ln.Addr(), *pool)
	serveErr := serveGracefully(ctx, ln, newServer(st), *drain, &st.ready, out)

	stopTicker()
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := sched.Close(dctx); err != nil {
		if serveErr == nil {
			serveErr = fmt.Errorf("fleet drain incomplete: %w", err)
		}
	} else {
		fmt.Fprintln(out, "albireo-serve: fleet drained")
	}
	if err := sealJournal(); err != nil && serveErr == nil {
		serveErr = err
	}
	return serveErr
}

// openJournal creates the journal, or reopens an existing one with
// crash recovery after verifying its header matches the current
// flags - appending under different pool flags would leave a chain no
// single rebuilt pool can replay.
func openJournal(dir string, hdr journal.Header, out io.Writer) (*journal.Writer, error) {
	if !journal.Exists(dir) {
		return journal.Create(dir, hdr, journal.Options{})
	}
	w, got, rec, err := journal.OpenAppend(dir, journal.Options{})
	if err != nil {
		return nil, fmt.Errorf("journal reopen: %w", err)
	}
	if got != hdr {
		w.Close()
		return nil, fmt.Errorf("journal %s was recorded under different flags (pool %d, seed %d, size %d, budget %g, keep-degraded %v, detune %q); rerun with matching flags or a fresh directory",
			dir, got.Pool, got.Seed, got.Size, got.Budget, got.KeepDegraded, got.Detune)
	}
	fmt.Fprintf(out, "albireo-serve: journal recovered at seq %d (%d torn byte(s) truncated)\n", rec.LastSeq, rec.TruncatedBytes)
	return w, nil
}

// bistDoc is the /bist (and -bist) wire shape: one report per worker.
type bistDoc struct {
	Workers []fleet.WorkerInfo `json:"workers"`
}

// serveState is everything the HTTP surface reads: instruments, the
// fleet (live routing and health state), the served model, and the
// readiness flag serveGracefully toggles.
type serveState struct {
	reg   *obs.Registry
	trace *obs.Trace
	clock obs.Clock
	start time.Time
	fleet *fleet.Scheduler
	// journal is the async journal appender, nil when -journal is off.
	journal *journal.Async
	model   *inference.Network
	inZ     int
	size    int
	ready   atomic.Bool
	// inferTicks is served-request latency denominated in fleet linger
	// ticks (the delta of Scheduler.Ticks across the model run) - the
	// deterministic sibling of a wall-time request histogram.
	inferTicks *obs.Histogram
}

// inferRequest is the /v1/infer input: one activation volume.
type inferRequest struct {
	Z    int       `json:"z"`
	Y    int       `json:"y"`
	X    int       `json:"x"`
	Data []float64 `json:"data"`
}

// inferResponse is the /v1/infer output.
type inferResponse struct {
	Model  string    `json:"model"`
	Logits []float64 `json:"logits"`
	Top1   int       `json:"top1"`
}

// inferStatus maps a fleet submission failure to an HTTP status.
func inferStatus(err error) int {
	switch {
	case errors.Is(err, fleet.ErrOverloaded), errors.Is(err, fleet.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// handleInfer is POST /v1/infer: decode the tensor, run the served
// model through the fleet under the request's context, return logits
// and the top-1 class.
func (st *serveState) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req inferRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInferBody))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Z != st.inZ || req.Y != st.size || req.X != st.size {
		http.Error(w, fmt.Sprintf("input shape %dx%dx%d, served model wants %dx%dx%d",
			req.Z, req.Y, req.X, st.inZ, st.size, st.size), http.StatusBadRequest)
		return
	}
	if len(req.Data) != req.Z*req.Y*req.X {
		http.Error(w, fmt.Sprintf("data length %d, want %d", len(req.Data), req.Z*req.Y*req.X), http.StatusBadRequest)
		return
	}
	vol := &tensor.Volume{Z: req.Z, Y: req.Y, X: req.X, Data: req.Data}

	before := st.fleet.Ticks()
	bound := st.fleet.Bind(r.Context())
	logits := st.model.Run(bound, vol)
	// Every response carries its journal correlation id: the sequence
	// number of the request's last admitted layer op, or -1 when
	// journaling is off (or the journal refused the record).
	w.Header().Set("X-Albireo-Seq", strconv.FormatInt(bound.JournalSeq(), 10))
	if err := bound.Err(); err != nil {
		http.Error(w, err.Error(), inferStatus(err))
		return
	}
	st.inferTicks.Observe(float64(st.fleet.Ticks() - before))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(inferResponse{
		Model:  st.model.Name,
		Logits: logits,
		Top1:   inference.Argmax(logits),
	})
}

// gemmMatrix is a matrix operand on the /v1/gemm wire.
type gemmMatrix struct {
	R    int       `json:"r"`
	C    int       `json:"c"`
	Data []float64 `json:"data"`
}

// gemmRequest is the /v1/gemm input: two matrix operands, an optional
// activation, and an optional workload op tag.
type gemmRequest struct {
	// Op tags the workload: "gemm" (default), "lstm", or "attention".
	Op   string     `json:"op"`
	A    gemmMatrix `json:"a"`
	B    gemmMatrix `json:"b"`
	ReLU bool       `json:"relu"`
}

// gemmResponse is the /v1/gemm output.
type gemmResponse struct {
	R    int       `json:"r"`
	C    int       `json:"c"`
	Data []float64 `json:"data"`
}

// gemmOp maps the wire op tag to its journal op.
func gemmOp(s string) (journal.Op, bool) {
	switch s {
	case "", "gemm":
		return journal.OpGEMM, true
	case "lstm":
		return journal.OpLSTM, true
	case "attention":
		return journal.OpAttention, true
	default:
		return 0, false
	}
}

// checkMatrix validates one wire operand.
func checkMatrix(name string, m gemmMatrix) error {
	if m.R < 1 || m.C < 1 {
		return fmt.Errorf("matrix %s shape %dx%d: dimensions must be positive", name, m.R, m.C)
	}
	if len(m.Data) != m.R*m.C {
		return fmt.Errorf("matrix %s data length %d, want %d", name, len(m.Data), m.R*m.C)
	}
	return nil
}

// handleGEMM is POST /v1/gemm: decode the operands, run the product on
// the fleet under the request's context, return the result matrix with
// its journal correlation id.
func (st *serveState) handleGEMM(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req gemmRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInferBody))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	op, ok := gemmOp(req.Op)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown op %q (want gemm, lstm, or attention)", req.Op), http.StatusBadRequest)
		return
	}
	if err := checkMatrix("a", req.A); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := checkMatrix("b", req.B); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.A.C != req.B.R {
		http.Error(w, fmt.Sprintf("inner dimensions disagree: a is %dx%d, b is %dx%d", req.A.R, req.A.C, req.B.R, req.B.C), http.StatusBadRequest)
		return
	}
	a := &tensor.Matrix{R: req.A.R, C: req.A.C, Data: req.A.Data}
	b := &tensor.Matrix{R: req.B.R, C: req.B.C, Data: req.B.Data}

	before := st.fleet.Ticks()
	fut := st.fleet.GEMMAsyncOp(r.Context(), op, a, b, req.ReLU)
	w.Header().Set("X-Albireo-Seq", strconv.FormatInt(fut.JournalSeq(), 10))
	out, err := fut.Matrix()
	if err != nil {
		http.Error(w, err.Error(), inferStatus(err))
		return
	}
	st.inferTicks.Observe(float64(st.fleet.Ticks() - before))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(gemmResponse{R: out.R, C: out.C, Data: out.Data})
}

// newServer builds the HTTP surface. The clock is injected so tests
// can pin the uptime gauge; simulation telemetry never touches it.
// Data endpoints are bounded by handlerTimeout; pprof is not (profiles
// stream for their requested duration).
func newServer(st *serveState) http.Handler {
	mux := http.NewServeMux()
	timed := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, http.TimeoutHandler(h, handlerTimeout, "request timed out"))
	}
	timed("/v1/infer", st.handleInfer)
	timed("/v1/gemm", st.handleGEMM)
	timed("/metrics", func(w http.ResponseWriter, r *http.Request) {
		st.reg.Gauge("albireo_serve_uptime_seconds").Set(st.clock.Now().Sub(st.start).Seconds())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := st.reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	timed("/trace", func(w http.ResponseWriter, r *http.Request) {
		raw, err := st.trace.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	})
	timed("/bist", func(w http.ResponseWriter, r *http.Request) {
		raw, err := json.MarshalIndent(bistDoc{Workers: st.fleet.Info()}, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	})
	timed("/journal", func(w http.ResponseWriter, r *http.Request) {
		if st.journal == nil {
			http.Error(w, "journaling disabled (start with -journal DIR)", http.StatusNotFound)
			return
		}
		raw, err := json.MarshalIndent(st.journal.Status(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	})
	timed("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: 200 as long as the process serves, even degraded -
		// restarts don't fix broken analog hardware. The body carries
		// the degradation detail for operators.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !st.fleet.Degraded() {
			fmt.Fprintln(w, "ok")
			return
		}
		var drained, degraded []string
		for _, wi := range st.fleet.Info() {
			id := strconv.Itoa(wi.Worker)
			if !wi.InService {
				drained = append(drained, id)
			} else if wi.Degraded {
				degraded = append(degraded, id)
			}
		}
		fmt.Fprintf(w, "degraded: drained workers [%s], degraded workers [%s]\n",
			strings.Join(drained, ","), strings.Join(degraded, ","))
	})
	timed("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !st.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready")
			return
		}
		if st.fleet.Degraded() {
			fmt.Fprintln(w, "ready (degraded)")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveGracefully serves h on ln until ctx is cancelled, then drains:
// readiness flips off (load balancers stop sending), in-flight
// requests get up to drain to finish, and the listener closes. Returns
// nil on a clean drain.
func serveGracefully(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, ready *atomic.Bool, out io.Writer) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	ready.Store(true)
	select {
	case err := <-errc:
		ready.Store(false)
		return err
	case <-ctx.Done():
	}
	ready.Store(false)
	fmt.Fprintf(out, "albireo-serve: shutting down, draining for up to %v\n", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		<-errc
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "albireo-serve: drained")
	return nil
}
