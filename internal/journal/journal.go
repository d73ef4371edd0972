package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Segment file framing constants.
const (
	// segMagic opens every segment file.
	segMagic = "ALBJRNL1"
	// segHeaderLen is the fixed segment header: magic, segment index,
	// first sequence number, and the chain hash preceding the segment.
	segHeaderLen = 8 + 8 + 8 + 32
	// frameOverhead is the per-record framing: body length and CRC.
	frameOverhead = 4 + 4
	// minBody is the smallest valid frame body: seq, kind, chain hash.
	minBody = 8 + 1 + 32
	// maxBody bounds a frame body so a corrupt length field cannot
	// drive an unbounded allocation.
	maxBody = 1 << 30
	// DefaultSegmentBytes is the rotation threshold.
	DefaultSegmentBytes = 8 << 20
	// writeChunk is how many bytes of frames a group commit buffers
	// before it writes them out.
	writeChunk = 32 << 10
)

// ErrClosed is returned for appends after Close.
var ErrClosed = errors.New("journal: writer closed")

// CorruptError reports the first record at which the journal fails
// validation: a CRC mismatch away from the tail, a broken sequence,
// or a chain hash that does not re-derive - the tamper-evidence
// signal. Seq pinpoints the damaged record.
type CorruptError struct {
	// Seq is the sequence number of the first invalid record.
	Seq uint64
	// Segment is the file holding it.
	Segment string
	// Offset is the frame's byte offset within the segment.
	Offset int64
	// Reason says what failed (crc, sequence, chain, framing).
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt record seq %d at %s:%d: %s", e.Seq, e.Segment, e.Offset, e.Reason)
}

// Options tunes a journal writer. The zero value is production
// defaults: fsync on every append, 8 MiB segments.
type Options struct {
	// SegmentBytes rotates to a new segment file once the active one
	// reaches this size (default DefaultSegmentBytes).
	SegmentBytes int64
	// NoSync skips the per-append fsync (tests only; production
	// journals exist to survive crashes).
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Recovery describes what reopening a journal found.
type Recovery struct {
	// LastSeq is the last valid sequence number.
	LastSeq uint64
	// TruncatedBytes is how much torn tail was dropped.
	TruncatedBytes int64
}

// Writer appends hash-chained records to fsync'd segment files. It is
// safe for concurrent use, but the serving stack funnels all appends
// through one Async goroutine so journal order is admission order.
type Writer struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	segIndex uint64
	segSize  int64
	nextSeq  uint64   // sequence number of the next record written
	head     [32]byte // chain hash of the last record written
	// Records below durable are synced; durableHead is the chain
	// hash there. Head reports this point, not the written one.
	durable     uint64
	durableHead [32]byte
	closed      bool
}

// segName renders a segment file name.
func segName(index uint64) string {
	return fmt.Sprintf("seg-%08d.alj", index)
}

// Exists reports whether dir already holds a journal (its first
// segment file is present), without opening or verifying it.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, segName(0)))
	return err == nil
}

// Create initializes a new journal in dir (created if absent; must
// not already hold one) and writes the header record.
func Create(dir string, hdr Header, opt Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if segs, err := listSegments(dir); err != nil {
		return nil, err
	} else if len(segs) > 0 {
		return nil, fmt.Errorf("journal: %s already holds a journal (%d segment(s)); use OpenAppend", dir, len(segs))
	}
	w := &Writer{dir: dir, opt: opt.withDefaults()}
	if err := w.openSegmentLocked(0, 0, w.head); err != nil {
		return nil, err
	}
	if _, err := w.Append(KindHeader, EncodeHeader(hdr)); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// OpenAppend reopens an existing journal for appending: the segments
// are re-scanned, the chain is re-verified record by record, a torn
// tail (an incomplete or checksum-failing final frame - the signature
// of a crash mid-write) is truncated away, and a KindRestart record
// marking the recovery is appended. Corruption anywhere before the
// tail fails with a *CorruptError pinpointing the sequence number.
func OpenAppend(dir string, opt Options) (*Writer, Header, Recovery, error) {
	sc, err := scan(dir, nil)
	if err != nil {
		return nil, Header{}, Recovery{}, err
	}
	rec := Recovery{LastSeq: sc.lastSeq, TruncatedBytes: sc.tornBytes}
	if sc.tornBytes > 0 {
		if err := os.Truncate(filepath.Join(dir, segName(sc.lastSegIndex)), sc.lastGoodOffset); err != nil {
			return nil, Header{}, Recovery{}, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	w := &Writer{dir: dir, opt: opt.withDefaults()}
	f, err := os.OpenFile(filepath.Join(dir, segName(sc.lastSegIndex)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, Header{}, Recovery{}, fmt.Errorf("journal: %w", err)
	}
	w.f = f
	w.segIndex = sc.lastSegIndex
	w.segSize = sc.lastGoodOffset
	w.nextSeq = sc.lastSeq + 1
	w.head = sc.head
	w.durable, w.durableHead = w.nextSeq, w.head
	if _, err := w.Append(KindRestart, Encode(Restart{Recovered: rec.LastSeq, TruncatedBytes: rec.TruncatedBytes})); err != nil {
		w.Close()
		return nil, Header{}, Recovery{}, err
	}
	return w, sc.header, rec, nil
}

// openSegmentLocked starts a fresh segment file carrying the chain
// state it continues from.
func (w *Writer) openSegmentLocked(index, firstSeq uint64, prev [32]byte) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(index)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	e := newEncoder(segHeaderLen)
	e.buf = append(e.buf, segMagic...)
	e.u64(index)
	e.u64(firstSeq)
	e.buf = append(e.buf, prev[:]...)
	if _, err := f.Write(e.buf); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	w.f = f
	w.segIndex = index
	w.segSize = segHeaderLen
	return nil
}

// Append writes one record, extends the hash chain, and (unless
// NoSync) fsyncs before returning, so an acknowledged sequence number
// is durable. Returns the record's sequence number.
func (w *Writer) Append(kind Kind, payload []byte) (uint64, error) {
	return w.AppendBatch([]Entry{{Kind: kind, Payload: payload}})
}

// Entry is one record of an AppendBatch group commit.
type Entry struct {
	Kind    Kind
	Payload []byte
}

// AppendBatch appends entries in order as one group commit: the
// frames go out in writes of about writeChunk bytes, split where a
// segment ends, and one fsync makes them all durable, so a burst of
// records pays for one sync instead of one each. The segment bytes,
// rotation points and hash chain are exactly those of appending the
// entries one at a time. Returns the first entry's sequence number (an
// empty batch appends nothing). On error, the frames of earlier writes
// stay in the chain (those of sealed segments durable) and no later
// entry is appended.
func (w *Writer) AppendBatch(entries []Entry) (uint64, error) {
	first, err := w.write(entries)
	if err != nil {
		return 0, err
	}
	if err := w.sync(); err != nil {
		return 0, err
	}
	return first, nil
}

// write is AppendBatch without the final fsync: the frames reach the
// segment files (a segment that fills is synced as it is sealed), and
// sync makes the rest durable.
func (w *Writer) write(entries []Entry) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	first, seq, head := w.nextSeq, w.nextSeq, w.head
	// A chunk holds under writeChunk bytes plus the frame that crosses
	// it, so the buffer is sized once and never regrown.
	total, largest := 0, 0
	for _, e := range entries {
		n := frameOverhead + minBody + len(e.Payload)
		total += n
		largest = max(largest, n)
	}
	buf := make([]byte, 0, min(total, writeChunk+largest))
	for i, e := range entries {
		head = chainHash(head, seq, e.Kind, e.Payload)
		buf = appendFrame(buf, seq, e.Kind, head, e.Payload)
		seq++
		// Write at the end of the batch, wherever a record at a time
		// would have rotated the segment, and once writeChunk bytes are
		// buffered, so a long batch is never copied whole.
		if i < len(entries)-1 && len(buf) < writeChunk && w.segSize+int64(len(buf)) < w.opt.SegmentBytes {
			continue
		}
		if _, err := w.f.Write(buf); err != nil {
			return 0, fmt.Errorf("journal: %w", err)
		}
		w.segSize += int64(len(buf))
		w.nextSeq, w.head = seq, head
		buf = buf[:0]
		if w.segSize >= w.opt.SegmentBytes {
			if err := w.rotateLocked(); err != nil {
				return 0, err
			}
		}
	}
	return first, nil
}

// sync makes every record written so far durable. The fsync runs
// outside the mutex, so writes go on meanwhile. A segment that rotation
// or Close sealed in the meantime was synced by them, and they moved
// the durable point past it.
func (w *Writer) sync() error {
	w.mu.Lock()
	f, seq, head := w.f, w.nextSeq, w.head
	w.mu.Unlock()
	if !w.opt.NoSync {
		err := f.Sync()
		if errors.Is(err, os.ErrClosed) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.durable {
		w.durable, w.durableHead = seq, head
	}
	return nil
}

// appendFrame appends one CRC-framed record to buf.
func appendFrame(buf []byte, seq uint64, kind Kind, chain [32]byte, payload []byte) []byte {
	e := encoder{buf: buf}
	start := len(buf)
	e.u32(uint32(minBody + len(payload)))
	e.u32(0) // CRC placeholder, patched below
	e.u64(seq)
	e.u8(uint8(kind))
	e.buf = append(e.buf, chain[:]...)
	e.buf = append(e.buf, payload...)
	binary.LittleEndian.PutUint32(e.buf[start+4:], crc32.ChecksumIEEE(e.buf[start+frameOverhead:]))
	return e.buf
}

// rotateLocked seals the active segment and opens the next one.
func (w *Writer) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.durable, w.durableHead = w.nextSeq, w.head
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return w.openSegmentLocked(w.segIndex+1, w.nextSeq, w.head)
}

// Head returns the last durably appended sequence number and its
// chain hash.
func (w *Writer) Head() (uint64, [32]byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.durable == 0 {
		return 0, w.durableHead
	}
	return w.durable - 1, w.durableHead
}

// Dir returns the journal directory.
func (w *Writer) Dir() string { return w.dir }

// Close syncs and closes the active segment. Further appends fail
// with ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	if syncErr == nil {
		w.durable, w.durableHead = w.nextSeq, w.head
	}
	closeErr := w.f.Close()
	if syncErr != nil {
		return fmt.Errorf("journal: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: %w", closeErr)
	}
	return nil
}

// listSegments returns the dir's segment indices in order, validating
// that they are contiguous from zero.
func listSegments(dir string) ([]uint64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.alj"))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	sort.Strings(matches)
	out := make([]uint64, 0, len(matches))
	for i, m := range matches {
		var idx uint64
		if _, err := fmt.Sscanf(filepath.Base(m), "seg-%08d.alj", &idx); err != nil {
			return nil, fmt.Errorf("journal: unrecognized segment name %s", filepath.Base(m))
		}
		if idx != uint64(i) {
			return nil, fmt.Errorf("journal: segment sequence broken: missing seg-%08d.alj", i)
		}
		out = append(out, idx)
	}
	return out, nil
}

// scanState is what a full scan of a journal directory establishes.
type scanState struct {
	header         Header
	lastSeq        uint64
	head           [32]byte
	lastSegIndex   uint64
	lastGoodOffset int64 // offset after the last valid frame in the last segment
	tornBytes      int64 // trailing bytes past it (torn tail)
	records        int
}

// scan walks every segment in order, re-deriving and checking the
// hash chain. Valid records are handed to visit (which may be nil).
// A torn tail - the final frame of the final segment incomplete or
// failing its CRC - is tolerated and reported via tornBytes; any
// other inconsistency returns *CorruptError with the offending
// sequence number.
func scan(dir string, visit func(Record) error) (*scanState, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("journal: no segments in %s", dir)
	}
	st := &scanState{}
	var prev [32]byte
	nextSeq := uint64(0)
	sawHeader := false
	for i, idx := range segs {
		name := segName(idx)
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		last := i == len(segs)-1
		if len(raw) < segHeaderLen {
			return nil, &CorruptError{Seq: nextSeq, Segment: name, Offset: 0, Reason: "segment header truncated"}
		}
		if string(raw[:8]) != segMagic {
			return nil, &CorruptError{Seq: nextSeq, Segment: name, Offset: 0, Reason: "bad segment magic"}
		}
		d := newDecoder(raw[8:segHeaderLen])
		hdrIndex, hdrFirst := d.u64(), d.u64()
		var hdrPrev [32]byte
		copy(hdrPrev[:], d.take(32))
		if hdrIndex != idx {
			return nil, &CorruptError{Seq: nextSeq, Segment: name, Offset: 0, Reason: "segment index mismatch"}
		}
		if hdrFirst != nextSeq {
			return nil, &CorruptError{Seq: nextSeq, Segment: name, Offset: 0, Reason: fmt.Sprintf("segment first seq %d, chain expects %d", hdrFirst, nextSeq)}
		}
		if hdrPrev != prev {
			return nil, &CorruptError{Seq: nextSeq, Segment: name, Offset: 0, Reason: "segment chain hash does not continue the journal"}
		}
		off := int64(segHeaderLen)
		st.lastSegIndex = idx
		st.lastGoodOffset = off
		for off < int64(len(raw)) {
			rest := raw[off:]
			// Frame header or body extending past EOF: only a torn tail
			// of the last segment; anywhere else the journal is damaged.
			if len(rest) < frameOverhead {
				if last {
					st.tornBytes = int64(len(rest))
					break
				}
				return nil, &CorruptError{Seq: nextSeq, Segment: name, Offset: off, Reason: "frame header truncated"}
			}
			fd := newDecoder(rest[:frameOverhead])
			bodyLen, wantCRC := int64(fd.u32()), fd.u32()
			frameEnd := off + frameOverhead + bodyLen
			if bodyLen < minBody || bodyLen > maxBody || frameEnd > int64(len(raw)) {
				if last {
					st.tornBytes = int64(len(raw)) - off
					break
				}
				return nil, &CorruptError{Seq: nextSeq, Segment: name, Offset: off, Reason: "frame length invalid"}
			}
			body := raw[off+frameOverhead : frameEnd]
			if crc32.ChecksumIEEE(body) != wantCRC {
				// A CRC failure on the very last frame is a torn write
				// (the crash interleaved with the append); the same
				// failure followed by more data is corruption and is
				// never silently dropped.
				if last && frameEnd == int64(len(raw)) {
					st.tornBytes = int64(len(raw)) - off
					break
				}
				return nil, &CorruptError{Seq: nextSeq, Segment: name, Offset: off, Reason: "crc mismatch"}
			}
			bd := newDecoder(body)
			seq := bd.u64()
			kind := Kind(bd.u8())
			var chain [32]byte
			copy(chain[:], bd.take(32))
			payload := body[minBody:]
			if seq != nextSeq {
				return nil, &CorruptError{Seq: nextSeq, Segment: name, Offset: off, Reason: fmt.Sprintf("sequence %d, chain expects %d", seq, nextSeq)}
			}
			if chainHash(prev, seq, kind, payload) != chain {
				return nil, &CorruptError{Seq: seq, Segment: name, Offset: off, Reason: "chain hash does not re-derive (record tampered or mis-written)"}
			}
			if seq == 0 {
				if kind != KindHeader {
					return nil, &CorruptError{Seq: 0, Segment: name, Offset: off, Reason: "first record is not a header"}
				}
				h, err := DecodeHeader(payload)
				if err != nil {
					return nil, &CorruptError{Seq: 0, Segment: name, Offset: off, Reason: err.Error()}
				}
				st.header = h
				sawHeader = true
			}
			if visit != nil {
				if err := visit(Record{Seq: seq, Kind: kind, Chain: chain, Payload: payload}); err != nil {
					return nil, err
				}
			}
			prev = chain
			nextSeq = seq + 1
			st.lastSeq = seq
			st.head = chain
			st.records++
			off = frameEnd
			st.lastGoodOffset = off
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("journal: %s has no header record", dir)
	}
	return st, nil
}
