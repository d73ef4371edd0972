package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"albireo/internal/obs"
)

// HTTPConfig describes one open-loop run against a live albireo-serve
// /v1/infer endpoint. Unlike the fleet driver this measures the real
// wire path in wall time - JSON codec, HTTP stack, handler - through
// an injected obs.Clock (the module's one sanctioned wall-time
// source), so it explores a deployment rather than gating CI.
type HTTPConfig struct {
	// URL is the infer endpoint, e.g. http://127.0.0.1:8080/v1/infer.
	URL string
	// Rate is the offered load in requests per second (Poisson mean).
	Rate float64
	// Duration is the arrival window.
	Duration time.Duration
	// Seed seeds the arrival process.
	Seed int64
	// Clock supplies wall time; required.
	Clock obs.Clock
	// MaxRetries bounds per-request retries of transient transport
	// errors - dials refused or connections reset while a server
	// restarts - with capped exponential backoff: attempt k waits
	// RetryBase<<k, capped at RetryCap. 0 uses DefaultMaxRetries;
	// negative disables retrying. Application responses (including 503
	// sheds) are never retried: the server answered.
	MaxRetries int
	// Sleep pauses between retry attempts (default time.Sleep).
	// Injected so tests drive the backoff deterministically without
	// waiting it out.
	Sleep func(time.Duration)
}

// The retry policy.
const (
	// DefaultMaxRetries is the per-request transient-error retry bound.
	DefaultMaxRetries = 3
	// RetryBase is the first backoff interval.
	RetryBase = 10 * time.Millisecond
	// RetryCap bounds the exponential backoff.
	RetryCap = 200 * time.Millisecond
)

// The request body is one zero volume of albireo-serve's default
// input shape, serveZ x serveSize x serveSize.
const serveZ, serveSize = 3, 12

// HTTPResult aggregates one HTTP run.
type HTTPResult struct {
	// Issued counts arrivals actually dispatched; Scheduled counts the
	// arrivals the Poisson process planned (they differ only when the
	// context ends the run early).
	Scheduled, Issued int64
	// Completed, Shed (HTTP 503), and Errors partition the responses.
	Completed, Shed, Errors int64
	// Retries counts transient transport errors absorbed by the retry
	// policy (not included in Errors; a request that exhausts its
	// retries still counts once in Errors).
	Retries int64
	// LatencyMicros summarizes completed-request latency in
	// microseconds, measured from each request's scheduled arrival
	// time - not its send time - so a stalled server cannot hide
	// queueing delay behind displaced sends (coordinated omission).
	LatencyMicros StageStats
}

// RunHTTP drives an open-loop Poisson arrival schedule against the
// endpoint: arrivals are precomputed from the seed, each request is
// issued in its own goroutine at its scheduled time regardless of how
// many are still outstanding, and latency is charged from the
// schedule. Ends early (with the context error) on cancellation.
func RunHTTP(ctx context.Context, cfg HTTPConfig) (HTTPResult, error) {
	if cfg.URL == "" || cfg.Rate <= 0 || cfg.Duration <= 0 {
		return HTTPResult{}, fmt.Errorf("load: need url, positive rate and duration")
	}
	if cfg.Clock == nil {
		return HTTPResult{}, errors.New("load: HTTPConfig.Clock is required")
	}
	client := &http.Client{}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}

	body, err := json.Marshal(map[string]any{
		"z": serveZ, "y": serveSize, "x": serveSize,
		"data": make([]float64, serveZ*serveSize*serveSize),
	})
	if err != nil {
		return HTTPResult{}, err
	}

	// The whole schedule exists before the first request: open loop.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var offsets []time.Duration
	for t := rng.ExpFloat64() / cfg.Rate; ; t += rng.ExpFloat64() / cfg.Rate {
		off := time.Duration(t * float64(time.Second))
		if off >= cfg.Duration {
			break
		}
		offsets = append(offsets, off)
	}

	res := HTTPResult{Scheduled: int64(len(offsets))}
	var retries atomic.Int64
	type outcome struct {
		status int
		err    error
		lat    time.Duration
	}
	outcomes := make([]outcome, len(offsets))
	var wg sync.WaitGroup
	start := cfg.Clock.Now()
	for i, off := range offsets {
		if err := ctx.Err(); err != nil {
			break
		}
		sched := start.Add(off)
		if d := sched.Sub(cfg.Clock.Now()); d > 0 {
			time.Sleep(d)
		}
		res.Issued++
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			// Transient transport errors (dial refused, connection reset
			// mid-restart) retry with capped exponential backoff instead
			// of polluting the error count; the schedule-anchored latency
			// then naturally charges the backoff to the request. A
			// response - any response - is final: application-level
			// shedding is signal, not noise.
			for attempt := 0; ; attempt++ {
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.URL, bytes.NewReader(body))
				if err != nil {
					outcomes[i] = outcome{err: err}
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					outcomes[i] = outcome{status: resp.StatusCode, lat: cfg.Clock.Now().Sub(sched)}
					return
				}
				if attempt >= maxRetries || !isTransient(err) || ctx.Err() != nil {
					outcomes[i] = outcome{err: err}
					return
				}
				retries.Add(1)
				sleep(min(RetryBase<<attempt, RetryCap))
			}
		}(i, sched)
	}
	wg.Wait()
	res.Retries = retries.Load()

	var lats []int64
	for _, o := range outcomes[:res.Issued] {
		switch {
		case o.err != nil:
			res.Errors++
		case o.status == http.StatusOK:
			res.Completed++
			lats = append(lats, o.lat.Microseconds())
		case o.status == http.StatusServiceUnavailable:
			res.Shed++
		default:
			res.Errors++
		}
	}
	res.LatencyMicros = TickStats(lats)
	return res, ctx.Err()
}

// isTransient classifies transport errors worth retrying: the server
// was not there yet or hung up mid-exchange - refused dials, resets,
// broken pipes, and truncated responses, the signatures of a restart
// - but never a context cancellation (the caller gave up; a retry
// would outlive the run).
func isTransient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	// net/http's errServerClosedIdle (the transport saw the peer close
	// the connection before the response) is unexported and unwraps to
	// nothing, so the message is the only handle on it.
	return strings.Contains(err.Error(), "server closed idle connection")
}
