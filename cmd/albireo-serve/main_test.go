package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"albireo/internal/core"
	"albireo/internal/fleet"
	"albireo/internal/inference"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// testState builds a server over a one-worker fleet with a sweep's
// worth of telemetry, the chip optionally pre-faulted through the
// BIST+quarantine path (KeepDegraded, like the binary's default).
func testState(t *testing.T, detune string) *serveState {
	t.Helper()
	reg := obs.NewRegistry()
	trace := obs.NewTrace()
	cfg := core.DefaultConfig()
	cfg.Seed = 3
	analog := inference.NewAnalog(cfg)
	analog.Chip.Instrument(reg, trace)
	if err := fleet.InjectFaultSpecs(analog.Chip, cfg, detune); err != nil {
		t.Fatal(err)
	}
	be := inference.Observe(inference.Guard(analog, inference.Exact{}, 0.5).Instrument(reg, trace), reg, trace)
	sched, err := fleet.New(
		fleet.Options{MaxLinger: 0, QueueDepth: 16, KeepDegraded: true},
		fleet.Unit{Backend: be, Chip: analog.Chip})
	if err != nil {
		t.Fatal(err)
	}
	sched.Instrument(reg, trace)
	if err := sched.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close(context.Background()) })
	if err := fleet.Sweep(context.Background(), sched.Bind(context.Background()), 1, 8, 3); err != nil {
		t.Fatal(err)
	}
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	return &serveState{
		reg: reg, trace: trace,
		clock: obs.NewManualClock(start), start: start,
		fleet: sched,
		model: inference.TinyCNN(3, 8, 3),
		inZ:   3, size: 8,
	}
}

func testServer(t *testing.T) (http.Handler, *serveState) {
	t.Helper()
	st := testState(t, "")
	st.ready.Store(true)
	return newServer(st), st
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	srv, st := testServer(t)
	st.clock.(*obs.ManualClock).Advance(90 * time.Second)
	rec := get(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
		// Metrics describe only what was served: no dataflow
		// simulation of another network rides along.
		for _, stale := range []string{"albireo_sim_", "albireo_sram_", "albireo_cache_"} {
			if strings.HasPrefix(line, stale) {
				t.Errorf("metrics carry an unserved series: %q", line)
			}
		}
	}
	for _, want := range []string{
		"albireo_plcg_steps_total",
		"albireo_mzm_program_events_total",
		"albireo_inference_layers_total",
		"albireo_bist_probes_total",
		"albireo_bist_scans_total",
		"albireo_inference_guard_checks_total",
		"albireo_fleet_queue_depth",
		"albireo_fleet_admitted_total",
		"albireo_fleet_batch_size_count",
		"albireo_fleet_worker_in_service{worker=\"0\"} 1",
		"albireo_serve_uptime_seconds 90",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	t.Parallel()
	srv, st := testServer(t)
	rec := get(t, srv, "/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Events []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(doc.Events) != st.trace.Len() {
		t.Fatalf("endpoint returned %d events, trace holds %d", len(doc.Events), st.trace.Len())
	}
	if len(doc.Events) == 0 {
		t.Fatal("sweep should have produced trace events")
	}
}

func TestHealthzAndPprof(t *testing.T) {
	t.Parallel()
	srv, _ := testServer(t)
	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, srv, "/readyz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ready") {
		t.Fatalf("readyz: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, srv, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("pprof index: %d", rec.Code)
	}
	if rec := get(t, srv, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Fatalf("pprof cmdline: %d", rec.Code)
	}
}

// postInfer POSTs one volume to /v1/infer.
func postInfer(t *testing.T, h http.Handler, req inferRequest) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(raw))
	r.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, r)
	return rec
}

func TestInferEndpoint(t *testing.T) {
	t.Parallel()
	srv, st := testServer(t)
	in := tensor.RandomVolume(3, 8, 8, 9)
	rec := postInfer(t, srv, inferRequest{Z: in.Z, Y: in.Y, X: in.X, Data: in.Data})
	if rec.Code != http.StatusOK {
		t.Fatalf("infer status %d: %s", rec.Code, rec.Body.String())
	}
	var resp inferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("infer JSON: %v", err)
	}
	if len(resp.Logits) == 0 {
		t.Fatal("no logits returned")
	}
	if resp.Top1 < 0 || resp.Top1 >= len(resp.Logits) {
		t.Fatalf("top1 = %d outside [0,%d)", resp.Top1, len(resp.Logits))
	}
	if resp.Model != st.model.Name {
		t.Fatalf("model = %q, want %q", resp.Model, st.model.Name)
	}
	// The fleet result must match running the model directly on the
	// same (stateless-per-run) reference: logits are real numbers.
	if resp.Top1 != inference.Argmax(resp.Logits) {
		t.Fatal("top1 does not match the returned logits")
	}
}

func TestInferEndpointRejects(t *testing.T) {
	t.Parallel()
	srv, _ := testServer(t)

	// Wrong method.
	rec := get(t, srv, "/v1/infer")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/infer: %d", rec.Code)
	}
	// Wrong shape.
	in := tensor.RandomVolume(3, 9, 9, 9)
	if rec := postInfer(t, srv, inferRequest{Z: 3, Y: 9, X: 9, Data: in.Data}); rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong shape: %d", rec.Code)
	}
	// Data length mismatch.
	if rec := postInfer(t, srv, inferRequest{Z: 3, Y: 8, X: 8, Data: []float64{1, 2}}); rec.Code != http.StatusBadRequest {
		t.Fatalf("short data: %d", rec.Code)
	}
	// Invalid JSON body.
	recJSON := httptest.NewRecorder()
	srv.ServeHTTP(recJSON, httptest.NewRequest("POST", "/v1/infer", strings.NewReader("{not json")))
	if recJSON.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", recJSON.Code)
	}
}

func TestDegradedStateSurfaces(t *testing.T) {
	t.Parallel()
	// Start with a dead-tuned ring: BIST localizes it, quarantine takes
	// the unit down, and the probes report a degraded-but-serving pool.
	st := testState(t, "2,1,4,3,0.0")
	st.ready.Store(true)
	srv := newServer(st)

	rec := get(t, srv, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded healthz must stay 200 (liveness), got %d", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "degraded") {
		t.Fatalf("healthz should report the degradation: %q", body)
	}
	if rec := get(t, srv, "/readyz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("readyz degraded: %d %q", rec.Code, rec.Body.String())
	}
	rec = get(t, srv, "/bist")
	var doc bistDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bist JSON: %v", err)
	}
	if len(doc.Workers) != 1 {
		t.Fatalf("bist workers: %d, want 1", len(doc.Workers))
	}
	wi := doc.Workers[0]
	if !wi.InService || !wi.Degraded {
		t.Fatalf("worker state: %+v, want in-service degraded", wi)
	}
	if len(wi.Report.Findings) == 0 {
		t.Fatal("bist report should carry the localized fault")
	}
	f := wi.Report.Findings[0]
	if f.Unit.Group != 2 || f.Unit.Unit != 1 || f.Tap != 4 || f.Column != 3 {
		t.Fatalf("bist localization wrong: %+v", f)
	}
	// Degraded pool still serves inference.
	in := tensor.RandomVolume(3, 8, 8, 9)
	if rec := postInfer(t, srv, inferRequest{Z: 3, Y: 8, X: 8, Data: in.Data}); rec.Code != http.StatusOK {
		t.Fatalf("degraded infer: %d %s", rec.Code, rec.Body.String())
	}
}

func TestReadyzNotReady(t *testing.T) {
	t.Parallel()
	st := testState(t, "")
	srv := newServer(st) // ready never stored: still starting up
	if rec := get(t, srv, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before ready: %d", rec.Code)
	}
}

func TestGracefulShutdown(t *testing.T) {
	t.Parallel()
	st := testState(t, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- serveGracefully(ctx, ln, newServer(st), 2*time.Second, &st.ready, &out)
	}()

	base := "http://" + ln.Addr().String()
	waitReady(t, base)
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while serving: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain within the timeout")
	}
	if st.ready.Load() {
		t.Error("readiness must flip off during drain")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener should be closed after shutdown")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("shutdown log: %q", out.String())
	}
}

// waitReady polls the readiness endpoint until the server accepts
// connections (the Serve goroutine races the first request).
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never came up")
}

func TestRunNoListenPrintsMetrics(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	if err := run(context.Background(), []string{"-addr", "", "-sweeps", "1", "-sweep-batch", "1", "-size", "8", "-pool", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE albireo_plcg_steps_total counter") {
		t.Fatalf("stdout mode must print Prometheus metrics:\n%.400s", out)
	}
	if !strings.Contains(out, "albireo_fleet_admitted_total") {
		t.Fatalf("stdout mode must include fleet metrics:\n%.400s", out)
	}
}

func TestRunBISTReportMode(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	args := []string{"-addr", "", "-sweeps", "0", "-bist", "-pool", "2", "-detune", "0,0,4,2,0.4"}
	if err := run(context.Background(), args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The per-worker JSON follows the startup log lines.
	idx := strings.Index(out, "{")
	if idx < 0 {
		t.Fatalf("no JSON in output: %q", out)
	}
	var doc bistDoc
	if err := json.Unmarshal([]byte(out[idx:]), &doc); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, out)
	}
	if len(doc.Workers) != 2 {
		t.Fatalf("workers: %d, want 2", len(doc.Workers))
	}
	w0 := doc.Workers[0]
	if len(w0.Report.Findings) != 1 || w0.Report.Findings[0].Tap != 4 || w0.Report.Findings[0].Column != 2 {
		t.Fatalf("worker 0 findings: %+v", w0.Report.Findings)
	}
	if !w0.InService || !w0.Degraded {
		t.Fatalf("worker 0 should serve degraded under -keep-degraded: %+v", w0)
	}
	if !doc.Workers[1].InService || doc.Workers[1].Degraded {
		t.Fatalf("worker 1 should be healthy: %+v", doc.Workers[1])
	}
	if !strings.Contains(out, "worker 0 serving degraded") {
		t.Fatalf("startup should log the degradation: %q", out)
	}
}

func TestRunDrainsFaultyWorker(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	args := []string{"-addr", "", "-sweeps", "0", "-bist", "-pool", "2",
		"-keep-degraded=false", "-detune", "0,0,4,2,0.4"}
	if err := run(context.Background(), args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	idx := strings.Index(out, "{")
	if idx < 0 {
		t.Fatalf("no JSON in output: %q", out)
	}
	var doc bistDoc
	if err := json.Unmarshal([]byte(out[idx:]), &doc); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, out)
	}
	if doc.Workers[0].InService {
		t.Fatalf("worker 0 should be drained: %+v", doc.Workers[0])
	}
	if !strings.Contains(out, "BIST drained worker 0") {
		t.Fatalf("startup should log the drain: %q", out)
	}
}

func TestRunFlagErrors(t *testing.T) {
	t.Parallel()
	cases := [][]string{
		{"-nonsense"},
		{"-addr", "", "-pool", "0"},
		{"-addr", "", "-queue", "0"},
		{"-addr", "", "-batch", "0"},
		{"-addr", "", "-linger", "-1ms"},
		{"-addr", "", "-sweep-batch", "0"},
		{"-addr", "", "-size", "4"},
		{"-addr", "", "-sweeps", "-1"},
		{"-addr", "", "-budget", "0"},
		{"-addr", "", "-detune", "0,0"},
		{"-addr", "", "-detune", "0,0,4,2,1.5"},
		{"-addr", "", "-detune", "0,0,99,2,0.5"},
		{"-addr", "", "-detune", "0,0,4,99,0.5"},
		{"-addr", "", "-detune", "99,0,4,2,0.5"},
		{"-addr", "", "-detune", "0,0,4,2,0.5,-1"},
		{"-addr", "", "-detune", "x,0,4,2,0.5"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v must error", args)
		}
	}
}

// TestRunIsDeterministic drives the whole stdout mode twice: same
// flags, bit-identical metrics output - the fleet preserves the
// repo-wide determinism invariant end to end.
func TestRunIsDeterministic(t *testing.T) {
	t.Parallel()
	runOnce := func() string {
		var sb strings.Builder
		if err := run(context.Background(), []string{
			"-addr", "", "-sweeps", "2", "-sweep-batch", "1", "-size", "8", "-pool", "2",
		}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatal("identical runs must produce bit-identical metrics output")
	}
}

// TestEndToEndDegradedServe drives run() itself against a real socket:
// inject a fault on worker 0, let the fleet's startup BIST handle it,
// then confirm the live endpoints report the degraded-but-serving
// state, serve /v1/infer, and the process exits cleanly on cancel.
func TestEndToEndDegradedServe(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // run() re-listens on the now-free port

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run(ctx, []string{
			"-addr", addr, "-sweeps", "0", "-size", "8", "-pool", "2",
			"-detune", "0,0,4,2,0.0", "-drain", "2s",
		}, &out)
	}()

	base := "http://" + addr
	waitReady(t, base)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	in := tensor.RandomVolume(3, 8, 8, 9)
	raw, _ := json.Marshal(inferRequest{Z: 3, Y: 8, X: 8, Data: in.Data})
	iresp, err := http.Post(base+"/v1/infer", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ibody, _ := io.ReadAll(iresp.Body)
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d %s", iresp.StatusCode, ibody)
	}
	var inferResp inferResponse
	if err := json.Unmarshal(ibody, &inferResp); err != nil {
		t.Fatalf("infer JSON: %v", err)
	}
	if len(inferResp.Logits) == 0 {
		t.Fatal("no logits from live server")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
	if !strings.Contains(out.String(), "worker 0 serving degraded") {
		t.Errorf("startup log: %q", out.String())
	}
	if !strings.Contains(out.String(), "fleet drained") {
		t.Errorf("shutdown log: %q", out.String())
	}
}
