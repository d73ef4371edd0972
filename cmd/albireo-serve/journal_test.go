package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"albireo/internal/journal"
	"albireo/internal/tensor"
)

// TestRunJournalStdoutMode drives the sweep mode with journaling on,
// twice: the first run creates and seals a verifiable chain, the
// second recovers it (appending a restart record), and a third run
// with different pool flags must refuse to append to a journal it
// could never replay.
func TestRunJournalStdoutMode(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "journal.d")
	args := []string{"-addr", "", "-sweeps", "1", "-sweep-batch", "1", "-size", "8", "-pool", "1", "-journal", dir}

	var first strings.Builder
	if err := run(context.Background(), args, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "journal sealed at seq") {
		t.Fatalf("first run did not seal the journal: %q", first.String())
	}
	snap, err := journal.Verify(dir)
	if err != nil {
		t.Fatalf("Verify after first run: %v", err)
	}
	if snap.Count < 2 {
		t.Fatalf("journal holds %d record(s), want header plus traffic", snap.Count)
	}
	firstSeq := snap.LastSeq

	var second strings.Builder
	if err := run(context.Background(), args, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "journal recovered at seq") {
		t.Fatalf("second run did not report recovery: %q", second.String())
	}
	full, err := journal.Read(dir)
	if err != nil {
		t.Fatalf("Read after reopen: %v", err)
	}
	restart := full.Records[firstSeq+1]
	if restart.Kind != journal.KindRestart {
		t.Fatalf("record %d kind = %v, want restart", firstSeq+1, restart.Kind)
	}

	// A different pool shape must be refused, not appended.
	bad := []string{"-addr", "", "-sweeps", "0", "-size", "8", "-pool", "2", "-journal", dir}
	if err := run(context.Background(), bad, io.Discard); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("mismatched flags against an existing journal: err = %v", err)
	}
}

// TestJournalDisabledSurfaces checks the off state: /journal is 404
// and the response seq header is the -1 sentinel.
func TestJournalDisabledSurfaces(t *testing.T) {
	t.Parallel()
	srv, _ := testServer(t)
	if rec := get(t, srv, "/journal"); rec.Code != http.StatusNotFound {
		t.Fatalf("/journal without -journal: %d, want 404", rec.Code)
	}
	in := tensor.RandomVolume(3, 8, 8, 9)
	rec := postInfer(t, srv, inferRequest{Z: 3, Y: 8, X: 8, Data: in.Data})
	if rec.Code != http.StatusOK {
		t.Fatalf("infer: %d", rec.Code)
	}
	if got := rec.Header().Get("X-Albireo-Seq"); got != "-1" {
		t.Fatalf("X-Albireo-Seq = %q without journaling, want -1", got)
	}
}

// TestEndToEndJournalServe runs the real binary path with -journal: a
// live request must carry its admit seq in X-Albireo-Seq, /journal
// must report the chain head, and shutdown must seal a journal that
// verifies end to end.
func TestEndToEndJournalServe(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // run() re-listens on the now-free port
	dir := filepath.Join(t.TempDir(), "journal.d")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	var out strings.Builder
	// -sweeps 1 matters: server-mode startup sweeps run under the
	// tick-denominated linger, so this pins the wall ticker starting
	// before the sweeps (it used to start only after net.Listen, and
	// the sweep's partial batch waited forever on a tick that never
	// came - the listener never came up).
	go func() {
		done <- run(ctx, []string{
			"-addr", addr, "-sweeps", "1", "-sweep-batch", "1", "-size", "8",
			"-pool", "1", "-journal", dir, "-drain", "2s",
		}, &out)
	}()

	base := "http://" + addr
	waitReady(t, base)
	in := tensor.RandomVolume(3, 8, 8, 9)
	raw, _ := json.Marshal(inferRequest{Z: 3, Y: 8, X: 8, Data: in.Data})
	resp, err := http.Post(base+"/v1/infer", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d", resp.StatusCode)
	}
	seq, err := strconv.ParseInt(resp.Header.Get("X-Albireo-Seq"), 10, 64)
	if err != nil || seq < 1 {
		t.Fatalf("X-Albireo-Seq = %q (%v), want a positive admit seq", resp.Header.Get("X-Albireo-Seq"), err)
	}

	// The journal writes behind the response, so poll /journal until
	// its durable head reaches the admit seq.
	var st journal.Status
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		jresp, err := http.Get(base + "/journal")
		if err != nil {
			t.Fatal(err)
		}
		jbody, _ := io.ReadAll(jresp.Body)
		jresp.Body.Close()
		if jresp.StatusCode != http.StatusOK {
			t.Fatalf("/journal: %d %s", jresp.StatusCode, jbody)
		}
		st = journal.Status{}
		if err := json.Unmarshal(jbody, &st); err != nil {
			t.Fatalf("/journal JSON: %v\n%s", err, jbody)
		}
		if st.Degraded || st.HeadSeq >= uint64(seq) || time.Now().After(deadline) {
			break
		}
	}
	if st.Degraded || st.HeadSeq < uint64(seq) {
		t.Fatalf("journal status = %+v, want healthy head at or past seq %d", st, seq)
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
	if !strings.Contains(out.String(), "journal sealed at seq") {
		t.Errorf("shutdown log: %q", out.String())
	}
	snap, err := journal.Verify(dir)
	if err != nil {
		t.Fatalf("Verify after shutdown: %v", err)
	}
	if snap.LastSeq < uint64(seq) {
		t.Fatalf("sealed journal head %d behind served seq %d", snap.LastSeq, seq)
	}
}
