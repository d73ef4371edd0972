package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// testHeader is the pool description every test journal starts with.
func testHeader() Header {
	return Header{Pool: 2, Seed: 7, Size: 8, Budget: 0.5, KeepDegraded: true, Detune: "0,0,4,2,0.4"}
}

// sampleRequest builds a small deterministic conv request.
func sampleRequest() *Request {
	return &Request{
		Op:   OpConv,
		ReLU: true,
		Cfg:  tensor.ConvConfig{Stride: 1, Pad: 1},
		A:    tensor.RandomVolume(2, 3, 3, 11),
		W:    tensor.RandomKernels(2, 2, 3, 3, 12),
	}
}

// buildJournal writes a known record sequence and returns the dir and
// the writer's final head.
func buildJournal(t *testing.T, opt Options) (string, uint64, [32]byte) {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, testHeader(), opt)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	records := []struct {
		kind    Kind
		payload []byte
	}{
		{KindAdmit, EncodeRequest(sampleRequest())},
		{KindDeliver, Encode(Deliver{Admit: 1, Worker: 0, Hash: Hash([]float64{1, 2}, 2)})},
		{KindShed, Encode(Shed{Op: OpFC, Queued: 16})},
		{KindDrain, Encode(Transition{Worker: 1, Findings: 2})},
		{KindRestore, Encode(Transition{Worker: 1, Probe: true})},
		{KindFallback, Encode(Fallback{Worker: 0, Op: OpConv})},
		{KindCancel, Encode(Cancel{Admit: 1})},
	}
	for i, r := range records {
		seq, err := w.Append(r.kind, r.payload)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("Append %d: seq = %d, want %d", i, seq, want)
		}
	}
	lastSeq, head := w.Head()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir, lastSeq, head
}

func TestCreateReadRoundTrip(t *testing.T) {
	dir, lastSeq, head := buildJournal(t, Options{NoSync: true})
	snap, err := Read(dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if snap.Header != testHeader() {
		t.Fatalf("header = %+v, want %+v", snap.Header, testHeader())
	}
	if snap.LastSeq != lastSeq || snap.Head != head {
		t.Fatalf("chain head = (%d, %x), want (%d, %x)", snap.LastSeq, snap.Head[:4], lastSeq, head[:4])
	}
	if snap.Count != 8 || len(snap.Records) != 8 {
		t.Fatalf("count = %d (%d records), want 8", snap.Count, len(snap.Records))
	}
	if snap.TornBytes != 0 {
		t.Fatalf("torn bytes = %d on a cleanly closed journal", snap.TornBytes)
	}
	wantKinds := []Kind{KindHeader, KindAdmit, KindDeliver, KindShed, KindDrain, KindRestore, KindFallback, KindCancel}
	for i, rec := range snap.Records {
		if rec.Seq != uint64(i) || rec.Kind != wantKinds[i] {
			t.Fatalf("record %d = (seq %d, %v), want (seq %d, %v)", i, rec.Seq, rec.Kind, i, wantKinds[i])
		}
	}
	// Spot-check payload decoding survives the disk round trip.
	sh, err := Decode[Shed](snap.Records[3].Payload)
	if err != nil || sh.Op != OpFC || sh.Queued != 16 {
		t.Fatalf("shed payload = %+v, %v", sh, err)
	}
	tr, err := Decode[Transition](snap.Records[5].Payload)
	if err != nil || tr.Worker != 1 || !tr.Probe {
		t.Fatalf("restore payload = %+v, %v", tr, err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range []*Request{
		sampleRequest(),
		{Op: OpFC, A: tensor.RandomVolume(4, 2, 2, 3), W: tensor.RandomKernels(5, 4, 2, 2, 4)},
		{Op: OpConv, Cfg: tensor.ConvConfig{Stride: 2, Pad: 0, Groups: 2}, A: tensor.RandomVolume(4, 5, 5, 5), W: tensor.RandomKernels(4, 2, 3, 3, 6)},
	} {
		enc := EncodeRequest(req)
		got, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("DecodeRequest(%v): %v", req.Op, err)
		}
		if got.Op != req.Op || got.ReLU != req.ReLU || got.Cfg != req.Cfg {
			t.Fatalf("decoded scalar fields = %+v, want %+v", got, req)
		}
		if got.A.Z != req.A.Z || got.A.Y != req.A.Y || got.A.X != req.A.X || !bitsEqual(got.A.Data, req.A.Data) {
			t.Fatal("activation volume did not round-trip bit-exactly")
		}
		if got.W.M != req.W.M || !bitsEqual(got.W.Data, req.W.Data) {
			t.Fatal("kernels did not round-trip bit-exactly")
		}
		// Canonical: re-encoding a decode must reproduce the bytes.
		if !bytes.Equal(EncodeRequest(got), enc) {
			t.Fatal("re-encoding a decoded request changed bytes: encoding not canonical")
		}
	}
	// Trailing garbage must be rejected, not ignored.
	enc := append(EncodeRequest(sampleRequest()), 0)
	if _, err := DecodeRequest(enc); err == nil {
		t.Fatal("DecodeRequest accepted trailing bytes")
	}
	// Truncation anywhere must fail cleanly.
	enc = EncodeRequest(sampleRequest())
	for _, cut := range []int{0, 1, 9, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeRequest(enc[:cut]); err == nil {
			t.Fatalf("DecodeRequest accepted truncation at %d", cut)
		}
	}
}

func TestGEMMRequestRoundTrip(t *testing.T) {
	for _, req := range []*Request{
		{Op: OpGEMM, ReLU: true, MA: tensor.RandomMatrix(3, 5, 31), MB: tensor.RandomMatrix(5, 4, 32)},
		{Op: OpLSTM, MA: tensor.RandomMatrix(2, 6, 33), MB: tensor.RandomMatrix(6, 8, 34)},
		{Op: OpAttention, MA: tensor.RandomMatrix(4, 4, 35), MB: tensor.RandomMatrix(4, 4, 36)},
	} {
		enc := EncodeRequest(req)
		got, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("DecodeRequest(%v): %v", req.Op, err)
		}
		if got.Op != req.Op || got.ReLU != req.ReLU {
			t.Fatalf("decoded scalar fields = %+v, want %+v", got, req)
		}
		if got.MA.R != req.MA.R || got.MA.C != req.MA.C || !bitsEqual(got.MA.Data, req.MA.Data) {
			t.Fatal("matrix A did not round-trip bit-exactly")
		}
		if got.MB.R != req.MB.R || got.MB.C != req.MB.C || !bitsEqual(got.MB.Data, req.MB.Data) {
			t.Fatal("matrix B did not round-trip bit-exactly")
		}
		if !bytes.Equal(EncodeRequest(got), enc) {
			t.Fatal("re-encoding a decoded GEMM request changed bytes: encoding not canonical")
		}
		// Volume ops must not leak into a GEMM frame and vice versa.
		if got.A != nil || got.W != nil {
			t.Fatal("GEMM decode populated volume operands")
		}
	}
	// An unknown op byte over a GEMM-shaped body is a hard decode
	// error, not a silent fallthrough to the conv layout.
	bad := EncodeRequest(&Request{Op: OpGEMM, MA: tensor.RandomMatrix(2, 2, 37), MB: tensor.RandomMatrix(2, 2, 38)})
	bad[0] = 200
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("DecodeRequest accepted an unknown op byte")
	}
	// Truncation anywhere in a GEMM frame fails cleanly.
	enc := EncodeRequest(&Request{Op: OpGEMM, MA: tensor.RandomMatrix(3, 3, 39), MB: tensor.RandomMatrix(3, 2, 40)})
	for _, cut := range []int{1, 2, 10, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeRequest(enc[:cut]); err == nil {
			t.Fatalf("DecodeRequest accepted GEMM truncation at %d", cut)
		}
	}
	if got := OpGEMM.String() + "/" + OpLSTM.String() + "/" + OpAttention.String(); got != "gemm/lstm/attention" {
		t.Fatalf("op names = %q", got)
	}
}

// bitsEqual compares float64 slices by raw bits (exact, NaN-safe).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testHeader(), Options{NoSync: true, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := w.Append(KindShed, Encode(Shed{Op: OpConv, Queued: int64(i)})); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.alj"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments = %v (err %v), want rotation to several files", segs, err)
	}
	snap, err := Read(dir)
	if err != nil {
		t.Fatalf("Read across segments: %v", err)
	}
	if snap.Count != n+1 || snap.LastSeq != n {
		t.Fatalf("count = %d, last = %d, want %d records through seq %d", snap.Count, snap.LastSeq, n+1, n)
	}
}

func TestOpenAppendCleanReopen(t *testing.T) {
	dir, lastSeq, _ := buildJournal(t, Options{NoSync: true})
	w, hdr, rec, err := OpenAppend(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	if hdr != testHeader() {
		t.Fatalf("reopened header = %+v", hdr)
	}
	if rec.LastSeq != lastSeq || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want last %d with nothing truncated", rec, lastSeq)
	}
	// Reopen appends a restart record continuing the chain.
	if seq, _ := w.Head(); seq != lastSeq+1 {
		t.Fatalf("head after reopen = %d, want restart at %d", seq, lastSeq+1)
	}
	if _, err := w.Append(KindShed, Encode(Shed{Op: OpConv, Queued: 1})); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap, err := Read(dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	restart := snap.Records[lastSeq+1]
	if restart.Kind != KindRestart {
		t.Fatalf("record %d kind = %v, want restart", lastSeq+1, restart.Kind)
	}
	r, err := Decode[Restart](restart.Payload)
	if err != nil || r.Recovered != lastSeq || r.TruncatedBytes != 0 {
		t.Fatalf("restart payload = %+v, %v", r, err)
	}
	ex := &replayExec{hashes: map[int]map[string][32]byte{0: {sampleRequest().Op.String(): Hash([]float64{1, 2}, 2)}}}
	if res, err := Replay(snap, ex); err != nil || res.Restarts != 1 {
		t.Fatalf("replay of the reopened journal: %+v, %v", res, err)
	}
}

// lastSegment returns the path of the journal's last segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.alj"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return segs[len(segs)-1]
}

// TestCrashRecoveryTornTail truncates the journal mid-record - the
// crash signature - and checks recovery drops exactly the torn tail.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir, lastSeq, _ := buildJournal(t, Options{NoSync: true})
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final frame (drop its last 5 bytes).
	if err := os.WriteFile(seg, raw[:len(raw)-5], 0o666); err != nil {
		t.Fatal(err)
	}

	snap, err := Read(dir)
	if err != nil {
		t.Fatalf("Read with torn tail: %v", err)
	}
	if snap.LastSeq != lastSeq-1 {
		t.Fatalf("last valid seq = %d, want %d (only the torn record dropped)", snap.LastSeq, lastSeq-1)
	}
	if snap.TornBytes == 0 {
		t.Fatal("torn bytes not reported")
	}

	w, _, rec, err := OpenAppend(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("OpenAppend after crash: %v", err)
	}
	if rec.LastSeq != lastSeq-1 || rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v, want last %d with a truncated tail", rec, lastSeq-1)
	}
	if _, err := w.Append(KindShed, Encode(Shed{Op: OpConv, Queued: 3})); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The recovered journal re-verifies end to end, restart included.
	snap, err = Read(dir)
	if err != nil {
		t.Fatalf("Read after recovery: %v", err)
	}
	if snap.TornBytes != 0 {
		t.Fatal("torn tail survived recovery")
	}
	if got := snap.Records[lastSeq].Kind; got != KindRestart {
		t.Fatalf("record %d kind = %v, want restart", lastSeq, got)
	}
	r, err := Decode[Restart](snap.Records[lastSeq].Payload)
	if err != nil || r.Recovered != lastSeq-1 || r.TruncatedBytes == 0 {
		t.Fatalf("restart payload = %+v, %v", r, err)
	}
}

// frameOffsets walks a segment file and returns each frame's offset
// and total length, in order.
func frameOffsets(t *testing.T, raw []byte) []int {
	t.Helper()
	var offs []int
	for off := segHeaderLen; off < len(raw); {
		offs = append(offs, off)
		bodyLen := int(binary.LittleEndian.Uint32(raw[off:]))
		off += frameOverhead + bodyLen
	}
	return offs
}

// TestCorruptionPinpointsSeq flips one byte in an interior record and
// checks verification fails with that record's sequence number - the
// tamper-evidence distinction from a torn tail.
func TestCorruptionPinpointsSeq(t *testing.T) {
	dir, _, _ := buildJournal(t, Options{NoSync: true})
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, raw)
	// Flip a payload byte of the third record (seq 2): CRC now fails
	// with more data following, which is corruption, not a crash.
	target := offs[2] + frameOverhead + 8 + 1 + 32 // into the payload
	raw[target] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = Read(dir)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Read of tampered journal: %v, want *CorruptError", err)
	}
	if ce.Seq != 2 {
		t.Fatalf("corruption pinpointed seq %d, want 2", ce.Seq)
	}
	// OpenAppend must refuse too: recovery never silently drops
	// interior records.
	if _, _, _, err := OpenAppend(dir, Options{NoSync: true}); !errors.As(err, &ce) {
		t.Fatalf("OpenAppend of tampered journal: %v, want *CorruptError", err)
	}
}

// TestChainTamperDetected rewrites a record consistently (payload and
// CRC both patched) so only the hash chain can catch it.
func TestChainTamperDetected(t *testing.T) {
	dir, _, _ := buildJournal(t, Options{NoSync: true})
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, raw)
	off := offs[3] // seq 3: the shed record
	bodyLen := int(binary.LittleEndian.Uint32(raw[off:]))
	body := raw[off+frameOverhead : off+frameOverhead+bodyLen]
	body[8+1+32] ^= 0xff // flip a payload byte
	binary.LittleEndian.PutUint32(raw[off+4:], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(seg, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = Read(dir)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Read of chain-tampered journal: %v, want *CorruptError", err)
	}
	if ce.Seq != 3 || !strings.Contains(ce.Reason, "chain") {
		t.Fatalf("chain tamper reported (seq %d, %q), want seq 3 with a chain reason", ce.Seq, ce.Reason)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir, _, _ := buildJournal(t, Options{NoSync: true})
	if _, err := Create(dir, testHeader(), Options{NoSync: true}); err == nil {
		t.Fatal("Create over an existing journal succeeded")
	}
	if !Exists(dir) {
		t.Fatal("Exists = false for a populated journal dir")
	}
	if Exists(t.TempDir()) {
		t.Fatal("Exists = true for an empty dir")
	}
}

func TestAsyncAssignsSeqsAndDrains(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testHeader(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAsync(w, 8)
	a.Start()
	for i := 0; i < 5; i++ {
		if seq := a.Record(KindShed, Encode(Shed{Op: OpConv, Queued: int64(i)})); seq != int64(i+1) {
			t.Fatalf("Record %d: seq = %d, want %d", i, seq, i+1)
		}
	}
	a.Drain()
	if seq, _ := w.Head(); seq != 5 {
		t.Fatalf("durable head after Drain = %d, want 5", seq)
	}
	if a.Degraded() {
		t.Fatal("journal degraded without backpressure")
	}
	st := a.Status()
	if st.HeadSeq != 5 || st.Enqueued != 5 || st.Dropped != 0 || st.Degraded {
		t.Fatalf("status = %+v", st)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if seq := a.Record(KindShed, nil); seq != -1 {
		t.Fatalf("Record after Close = %d, want -1", seq)
	}
	if _, err := Read(dir); err != nil {
		t.Fatalf("Read after async close: %v", err)
	}
}

// TestAsyncBackpressureDegrades fills the queue with no consumer: the
// overflowing record must be dropped (never block) and the journal
// latched degraded.
func TestAsyncBackpressureDegrades(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testHeader(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAsync(w, 1) // writer goroutine deliberately not started
	if seq := a.Record(KindShed, Encode(Shed{})); seq != 1 {
		t.Fatalf("first record seq = %d, want 1", seq)
	}
	if seq := a.Record(KindShed, Encode(Shed{})); seq != -1 {
		t.Fatalf("overflow record seq = %d, want -1 (dropped)", seq)
	}
	if !a.Degraded() {
		t.Fatal("journal not degraded after a drop")
	}
	// Degradation latches: capacity freeing up does not resume.
	a.Start()
	a.Drain()
	if seq := a.Record(KindShed, Encode(Shed{})); seq != -1 {
		t.Fatalf("post-degradation record seq = %d, want -1", seq)
	}
	st := a.Status()
	if st.Dropped != 2 || !st.Degraded {
		t.Fatalf("status = %+v, want 2 drops and degraded", st)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayExec is a scripted journal.Executor.
type replayExec struct {
	hashes map[int]map[string][32]byte // worker -> op -> hash
	probes []int
	shards []ShardRec
	merged map[uint64][32]byte // admit -> merged output hash
}

func (e *replayExec) Execute(worker int, req *Request) ([32]byte, error) {
	return e.hashes[worker][req.Op.String()], nil
}

func (e *replayExec) Probe(worker int) error {
	e.probes = append(e.probes, worker)
	return nil
}

func (e *replayExec) ExecuteShard(worker int, admit uint64, req *Request, pos, count, of int) error {
	e.shards = append(e.shards, ShardRec{Admit: admit, Worker: int64(worker), Pos: int64(pos), Count: int64(count), Of: int64(of)})
	return nil
}

func (e *replayExec) FinishShard(admit uint64) ([32]byte, error) {
	h, ok := e.merged[admit]
	if !ok {
		return [32]byte{}, fmt.Errorf("no merge for admit %d", admit)
	}
	return h, nil
}

func TestReplayVerifiesAndDiverges(t *testing.T) {
	okHash := Hash([]float64{3, 1, 4}, 3)
	dir := t.TempDir()
	w, err := Create(dir, testHeader(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	fc := &Request{Op: OpFC, A: tensor.RandomVolume(2, 2, 2, 1), W: tensor.RandomKernels(3, 2, 2, 2, 2)}
	mustAppend := func(k Kind, p []byte) uint64 {
		t.Helper()
		seq, err := w.Append(k, p)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	admit := mustAppend(KindAdmit, EncodeRequest(fc))
	mustAppend(KindDeliver, Encode(Deliver{Admit: admit, Worker: 1, Hash: okHash}))
	mustAppend(KindDrain, Encode(Transition{Worker: 0, Findings: 1, Probe: true}))
	mustAppend(KindRestore, Encode(Transition{Worker: 0, Probe: true}))
	admit2 := mustAppend(KindAdmit, EncodeRequest(fc))
	divergeAt := mustAppend(KindDeliver, Encode(Deliver{Admit: admit2, Worker: 0, Hash: okHash}))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Matching executor: everything verifies, probes re-run.
	ex := &replayExec{hashes: map[int]map[string][32]byte{0: {"fc": okHash}, 1: {"fc": okHash}}}
	res, err := Replay(snap, ex)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Verified != 2 || res.Delivers != 2 || res.Admits != 2 || res.Probes != 2 {
		t.Fatalf("replay result = %+v", res)
	}
	if len(ex.probes) != 2 || ex.probes[0] != 0 {
		t.Fatalf("probes replayed = %v", ex.probes)
	}

	// Worker 0 now produces different bits: the first divergent seq is
	// its deliver record.
	ex = &replayExec{hashes: map[int]map[string][32]byte{0: {"fc": Hash([]float64{0}, 1)}, 1: {"fc": okHash}}}
	res, err = Replay(snap, ex)
	d, ok := AsDivergence(err)
	if !ok {
		t.Fatalf("Replay of diverging pool: %v, want *Divergence", err)
	}
	if d.Seq != divergeAt || d.Worker != 0 || d.Admit != admit2 {
		t.Fatalf("divergence = %+v, want seq %d on worker 0", d, divergeAt)
	}
	if res.Verified != 1 {
		t.Fatalf("verified before divergence = %d, want 1", res.Verified)
	}
}

// TestReplayDecodesEveryRecord: shed, cancel, and fallback records
// carry nothing to re-execute, but replay still decodes each one, so a
// malformed payload - or a cancel naming an admit the chain never
// recorded - fails the replay instead of being counted.
func TestReplayDecodesEveryRecord(t *testing.T) {
	admit := EncodeRequest(&Request{Op: OpFC, A: tensor.RandomVolume(1, 1, 1, 1), W: tensor.RandomKernels(1, 1, 1, 1, 2)})
	snap := func(recs ...Record) *Snapshot {
		out := []Record{{Seq: 1, Kind: KindAdmit, Payload: admit}}
		for i, r := range recs {
			r.Seq = uint64(i + 2)
			out = append(out, r)
		}
		return &Snapshot{Records: out}
	}
	res, err := Replay(snap(
		Record{Kind: KindShed, Payload: Encode(Shed{Op: OpConv, Queued: 3})},
		Record{Kind: KindCancel, Payload: Encode(Cancel{Admit: 1})},
		Record{Kind: KindFallback, Payload: Encode(Fallback{Worker: 1, Op: OpFC})},
		Record{Kind: KindRestart, Payload: Encode(Restart{Recovered: 4})},
	), &replayExec{})
	if err != nil || res.Sheds != 1 || res.Cancels != 1 || res.Fallbacks != 1 || res.Restarts != 1 {
		t.Fatalf("well-formed records: %+v, %v", res, err)
	}
	for name, rec := range map[string]Record{
		"short shed":          {Kind: KindShed, Payload: []byte{1}},
		"empty cancel":        {Kind: KindCancel},
		"short fallback":      {Kind: KindFallback, Payload: []byte{9, 9}},
		"cancel of no admit":  {Kind: KindCancel, Payload: Encode(Cancel{Admit: 7})},
		"short restart":       {Kind: KindRestart, Payload: []byte{1}},
		"restart off its seq": {Kind: KindRestart, Payload: Encode(Restart{Recovered: 9})},
	} {
		if _, err := Replay(snap(rec), &replayExec{}); err == nil {
			t.Errorf("%s: replay accepted it", name)
		}
	}
}

func TestShardRecordRoundTrip(t *testing.T) {
	in := ShardRec{Admit: 42, Worker: 3, Pos: 4, Count: 2, Of: 9}
	out, err := Decode[ShardRec](Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	if _, err := Decode[ShardRec](Encode(in)[:11]); err == nil {
		t.Fatal("truncated shard payload decoded")
	}
	if KindShard.String() != "shard" {
		t.Fatalf("KindShard = %q", KindShard)
	}
}

// TestReplayShardedRequest pins the sharded replay protocol: shard
// sub-requests execute at their KindShard records (journal order =
// per-worker dispatch order), and the parent's merged deliver (Worker
// -1) is verified through FinishShard.
func TestReplayShardedRequest(t *testing.T) {
	mergedHash := hashOutput(tensor.RandomVolume(2, 2, 2, 9))
	dir := t.TempDir()
	w, err := Create(dir, testHeader(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	conv := &Request{Op: OpConv, A: tensor.RandomVolume(2, 4, 4, 1), W: tensor.RandomKernels(4, 2, 3, 3, 2)}
	mustAppend := func(k Kind, p []byte) uint64 {
		t.Helper()
		seq, err := w.Append(k, p)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	admit := mustAppend(KindAdmit, EncodeRequest(conv))
	mustAppend(KindShard, Encode(ShardRec{Admit: admit, Worker: 0, Pos: 0, Count: 5, Of: 9}))
	mustAppend(KindShard, Encode(ShardRec{Admit: admit, Worker: 1, Pos: 5, Count: 4, Of: 9}))
	mustAppend(KindDeliver, Encode(Deliver{Admit: admit, Worker: -1, Hash: mergedHash}))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}

	ex := &replayExec{merged: map[uint64][32]byte{admit: mergedHash}}
	res, err := Replay(snap, ex)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.ShardSubs != 2 || res.Delivers != 1 || res.Verified != 1 {
		t.Fatalf("replay result = %+v, want 2 shard subs and 1 verified deliver", res)
	}
	if len(ex.shards) != 2 || ex.shards[0].Worker != 0 || ex.shards[1].Pos != 5 {
		t.Fatalf("shards replayed = %+v", ex.shards)
	}

	// A merge that reproduces different bits is a divergence at the
	// parent's deliver record.
	ex = &replayExec{merged: map[uint64][32]byte{admit: hashOutput(tensor.RandomVolume(2, 2, 2, 10))}}
	if _, err := Replay(snap, ex); err == nil {
		t.Fatal("diverging merged hash verified")
	} else if d, ok := AsDivergence(err); !ok || d.Worker != -1 {
		t.Fatalf("want *Divergence on worker -1, got %v", err)
	}
}

// TestAppendBatchMatchesAppend writes one record sequence twice - a
// record at a time, and in uneven group commits - with segments small
// enough to rotate inside a batch. The segment files must be
// byte-identical and the batched journal must verify.
func TestAppendBatchMatchesAppend(t *testing.T) {
	var entries []Entry
	for i := 0; i < 60; i++ {
		entries = append(entries, Entry{Kind: KindShed, Payload: Encode(Shed{Op: OpConv, Queued: int64(i)})})
		if i%7 == 3 {
			entries = append(entries, Entry{Kind: KindAdmit, Payload: EncodeRequest(sampleRequest())})
		}
	}
	for _, opt := range []Options{{NoSync: true, SegmentBytes: 700}, {SegmentBytes: 4096}} {
		single, batched := t.TempDir(), t.TempDir()
		w1, err := Create(single, testHeader(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if _, err := w1.Append(e.Kind, e.Payload); err != nil {
				t.Fatal(err)
			}
		}
		w2, err := Create(batched, testHeader(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, size := 0, 1; i < len(entries); i, size = i+size, size%9+1 {
			batch := entries[i:min(i+size, len(entries))]
			first, err := w2.AppendBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(i + 1); first != want {
				t.Fatalf("batch at %d: first seq %d, want %d", i, first, want)
			}
		}
		for _, w := range []*Writer{w1, w2} {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		segs, err := filepath.Glob(filepath.Join(single, "seg-*.alj"))
		if err != nil || len(segs) < 2 {
			t.Fatalf("segments %v (err %v), want rotation", segs, err)
		}
		for _, seg := range segs {
			want, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(batched, filepath.Base(seg)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: batched segment differs from the record-at-a-time one", filepath.Base(seg))
			}
		}
		if more, _ := filepath.Glob(filepath.Join(batched, "seg-*.alj")); len(more) != len(segs) {
			t.Fatalf("batched journal has %d segments, want %d", len(more), len(segs))
		}
		snap, err := Verify(batched)
		if err != nil {
			t.Fatalf("Verify batched journal: %v", err)
		}
		if snap.LastSeq != uint64(len(entries)) {
			t.Fatalf("batched journal ends at seq %d, want %d", snap.LastSeq, len(entries))
		}
	}
}

// TestAppendBatchWritesInChunks commits 64 13 KB admits (837 KB) as
// one batch into one segment: the bytes must equal appending them one
// at a time, and the batch must not copy itself whole onto the heap
// (its frames go out writeChunk bytes at a time).
func TestAppendBatchWritesInChunks(t *testing.T) {
	payload := EncodeRequest(&Request{
		Op: OpConv, ReLU: true, Cfg: tensor.ConvConfig{Stride: 1, Pad: 1},
		A: tensor.RandomVolume(8, 8, 8, 1), W: tensor.RandomKernels(16, 8, 3, 3, 2),
	})
	entries := make([]Entry, 64)
	for i := range entries {
		entries[i] = Entry{Kind: KindAdmit, Payload: payload}
	}
	single, batched := t.TempDir(), t.TempDir()
	w1, err := Create(single, testHeader(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, err := w1.Append(e.Kind, e.Payload); err != nil {
			t.Fatal(err)
		}
	}
	w2, err := Create(batched, testHeader(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := w2.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*writeChunk {
		t.Errorf("AppendBatch of %d KB allocated %d KB, want at most %d KB", len(entries)*len(payload)>>10, got>>10, 4*writeChunk>>10)
	}
	for _, w := range []*Writer{w1, w2} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(single, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(batched, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chunked batch differs from the record-at-a-time segment")
	}
}

// TestAsyncDrainAfterGroupCommit floods the async writer so records
// queue up and commit in batches, then checks that each Drain returns
// only once every record enqueued before it is on disk: a fresh scan of
// the still-open journal must end at the last acknowledged seq.
func TestAsyncDrainAfterGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testHeader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAsync(w, 256)
	a.Start()
	var last int64
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			if last = a.Record(KindShed, Encode(Shed{Op: OpConv, Queued: int64(i)})); last < 0 {
				t.Fatalf("round %d record %d dropped", round, i)
			}
		}
		a.Drain()
		snap, err := Verify(dir)
		if err != nil {
			t.Fatalf("round %d: Verify: %v", round, err)
		}
		if snap.LastSeq != uint64(last) || snap.Count != int(last)+1 {
			t.Fatalf("round %d: journal holds %d records through seq %d after Drain, want through %d", round, snap.Count, snap.LastSeq, last)
		}
	}
	if a.Degraded() {
		t.Fatal("journal degraded")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterHeadIsDurable checks that write moves only the written
// point: Head, the durable point, moves when sync runs, or when a
// segment fills and rotation seals it.
func TestWriterHeadIsDurable(t *testing.T) {
	w, err := Create(t.TempDir(), testHeader(), Options{SegmentBytes: 700})
	if err != nil {
		t.Fatal(err)
	}
	shed := Entry{Kind: KindShed, Payload: Encode(Shed{Op: OpConv})}
	if _, err := w.write([]Entry{shed, shed}); err != nil {
		t.Fatal(err)
	}
	if seq, _ := w.Head(); seq != 0 {
		t.Fatalf("head after an unsynced write = %d, want 0 (the header)", seq)
	}
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	if seq, _ := w.Head(); seq != 2 {
		t.Fatalf("head after sync = %d, want 2", seq)
	}
	// A request frame overflows the 700-byte segment, so the write
	// rotates after it: everything through it is synced.
	if _, err := w.write([]Entry{{Kind: KindAdmit, Payload: EncodeRequest(sampleRequest())}, shed}); err != nil {
		t.Fatal(err)
	}
	if seq, _ := w.Head(); seq != 3 {
		t.Fatalf("head after a rotating write = %d, want 3", seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if seq, _ := w.Head(); seq != 4 {
		t.Fatalf("head after Close = %d, want 4", seq)
	}
}

// TestAsyncCountsEveryDurableRecord floods an instrumented async
// journal whose segments rotate every few records: the appended
// counter and the chain-head gauge must end exactly at the record
// count, whether the syncer or a rotation made a record durable.
func TestAsyncCountsEveryDurableRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testHeader(), Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	a := NewAsync(w, 512).Instrument(reg, nil)
	a.Start()
	const n = 300
	for i := 0; i < n; i++ {
		p := Encode(Shed{Op: OpConv, Queued: int64(i)})
		if i%10 == 0 {
			p = EncodeRequest(sampleRequest())
		}
		if a.Record(KindShed, p) < 0 {
			t.Fatalf("record %d dropped", i)
		}
		if i == n/2 {
			a.Drain()
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters[MetricAppended]; got != n {
		t.Fatalf("appended = %d, want %d", got, n)
	}
	if got := s.Gauges[MetricChainHead]; got != n {
		t.Fatalf("chain head gauge = %v, want %d", got, n)
	}
	snap, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != n+1 {
		t.Fatalf("journal holds %d records, want %d and the header", snap.Count, n)
	}
}

// BenchmarkAsyncRecord measures the async journal's sustained record
// rate: records go through Record as fast as the queue takes them, in
// bursts of one queue's worth, each closed by a Drain that returns once
// the burst is durable. Small records are sheds; request records are a
// 13 KB convolution admit.
func BenchmarkAsyncRecord(b *testing.B) {
	req := EncodeRequest(&Request{
		Op: OpConv, ReLU: true, Cfg: tensor.ConvConfig{Stride: 1, Pad: 1},
		A: tensor.RandomVolume(8, 8, 8, 1), W: tensor.RandomKernels(16, 8, 3, 3, 2),
	})
	shed := Encode(Shed{Op: OpConv, Queued: 1})
	for _, bc := range []struct {
		name    string
		payload []byte
		noSync  bool
	}{
		{"shed/nosync", shed, true},
		{"shed/fsync", shed, false},
		{"admit/nosync", req, true},
		{"admit/fsync", req, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w, err := Create(b.TempDir(), testHeader(), Options{NoSync: bc.noSync})
			if err != nil {
				b.Fatal(err)
			}
			const burst = 4096
			a := NewAsync(w, burst)
			a.Start()
			b.SetBytes(int64(len(bc.payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a.Record(KindShed, bc.payload) < 0 {
					b.Fatal("record dropped")
				}
				if i%burst == burst-1 {
					a.Drain()
				}
			}
			a.Drain()
			b.StopTimer()
			if err := a.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// encodePayload encodes any fixed-width payload value.
func encodePayload(v any) []byte {
	switch p := v.(type) {
	case Shed:
		return Encode(p)
	case Deliver:
		return Encode(p)
	case Cancel:
		return Encode(p)
	case Transition:
		return Encode(p)
	case Fallback:
		return Encode(p)
	case ShardRec:
		return Encode(p)
	case Restart:
		return Encode(p)
	}
	panic(fmt.Sprintf("no payload kind %T", v))
}

// decodePayload decodes b as a payload of like's type.
func decodePayload(like any, b []byte) (any, error) {
	switch like.(type) {
	case Shed:
		return Decode[Shed](b)
	case Deliver:
		return Decode[Deliver](b)
	case Cancel:
		return Decode[Cancel](b)
	case Transition:
		return Decode[Transition](b)
	case Fallback:
		return Decode[Fallback](b)
	case ShardRec:
		return Decode[ShardRec](b)
	case Restart:
		return Decode[Restart](b)
	}
	panic(fmt.Sprintf("no payload kind %T", like))
}

// hashOutput hashes a volume, matrix or vector output.
func hashOutput(out any) [32]byte {
	switch o := out.(type) {
	case *tensor.Volume:
		return Hash(o.Data, o.Z, o.Y, o.X)
	case *tensor.Matrix:
		return Hash(o.Data, o.R, o.C)
	case []float64:
		return Hash(o, len(o))
	}
	panic(fmt.Sprintf("no output kind %T", out))
}
