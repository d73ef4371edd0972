package load_test

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"albireo/internal/load"
	"albireo/internal/obs"
)

// flakyListener drops (accepts then immediately closes) the first
// Flaky connections - the client sees the reset/EOF signature of a
// server mid-restart - and hands every later one to the HTTP server.
type flakyListener struct {
	net.Listener
	remaining atomic.Int64
}

func (l *flakyListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.remaining.Add(-1) >= 0 {
			c.Close()
			continue
		}
		return c, nil
	}
}

// TestRunHTTPRetriesTransient checks the retry policy end to end: a
// listener that kills the first few connections must cost retries (and
// injected backoff sleeps), never errors.
func TestRunHTTPRetriesTransient(t *testing.T) {
	t.Parallel()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	l := &flakyListener{Listener: inner}
	l.remaining.Store(3)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"logits":[1]}`))
	})}
	go srv.Serve(l)
	defer srv.Close()

	var mu sync.Mutex
	var slept []time.Duration
	res, err := load.RunHTTP(context.Background(), load.HTTPConfig{
		URL:      "http://" + inner.Addr().String(),
		Rate:     300,
		Duration: 60 * time.Millisecond,
		Seed:     9,
		Clock:    obs.WallClock{},
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("RunHTTP: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d with retries available, want 0", res.Errors)
	}
	if res.Completed != res.Issued {
		t.Fatalf("completed %d of %d issued", res.Completed, res.Issued)
	}
	if res.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (listener dropped 3 connections)", res.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(len(slept)) != res.Retries {
		t.Fatalf("backoff sleeps = %d, want one per retry (%d)", len(slept), res.Retries)
	}
	for _, d := range slept {
		if d < load.RetryBase || d > load.RetryCap {
			t.Fatalf("backoff %v outside [%v, %v]", d, load.RetryBase, load.RetryCap)
		}
	}
}

// TestRunHTTPRetryDisabled checks the opt-out: with MaxRetries < 0 the
// dropped connections surface as errors and Sleep is never called.
func TestRunHTTPRetryDisabled(t *testing.T) {
	t.Parallel()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	l := &flakyListener{Listener: inner}
	l.remaining.Store(2)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"logits":[1]}`))
	})}
	go srv.Serve(l)
	defer srv.Close()

	res, err := load.RunHTTP(context.Background(), load.HTTPConfig{
		URL:        "http://" + inner.Addr().String(),
		Rate:       300,
		Duration:   60 * time.Millisecond,
		Seed:       9,
		Clock:      obs.WallClock{},
		MaxRetries: -1,
		Sleep: func(time.Duration) {
			t.Error("Sleep called with retries disabled")
		},
	})
	if err != nil {
		t.Fatalf("RunHTTP: %v", err)
	}
	if res.Retries != 0 {
		t.Fatalf("retries = %d with retrying disabled", res.Retries)
	}
	if res.Errors == 0 {
		t.Fatal("dropped connections did not surface as errors with retries disabled")
	}
}
