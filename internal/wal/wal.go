// Package wal implements the orchestrator's durable write-ahead log: an
// append-only stream of typed, length-prefixed, CRC32-guarded records plus
// periodically checkpointed snapshot files. The package is deliberately
// schema-free — record payloads and snapshot blobs are opaque byte slices
// whose schema belongs to the caller (internal/core) — so the framing layer
// can be tested and fuzzed in isolation and never imports orchestration
// code. What it does offer schema owners is the vocabulary payloads are
// written in: Codec (codec.go) is a set of type-free binary primitives over
// which a record type lists its fields once, for encoding and decoding alike.
//
// On-disk layout inside a data directory:
//
//	wal.log              the live record stream, appended to
//	wal-<last>.log       a sealed segment: the records before a checkpoint,
//	                     <last> being the sequence of its final record
//	snapshot-<seq>.snap  checkpoint anchored at record sequence <seq>
//
// A record envelope is
//
//	u32 body length | u32 CRC32(body) | body
//
// where body is
//
//	u64 sequence | u8 type length | type | payload
//
// all integers little-endian. Sequence numbers start at 1 and increase by
// exactly one per record; Load rejects gaps and duplicates with ErrBadSeq.
// A partially written record at the end of the log (torn write on crash)
// decodes as ErrTruncated and is tolerated by Load — the stream simply
// ends there. A record whose declared body is fully present but fails its
// CRC is ErrCorrupt and rejected outright, even at the tail: the length
// prefix was durable, so the damage is not a torn write.
//
// Snapshot files carry their own magic, sequence anchor and CRC. They are
// published by writeFileAtomic — temporary name, fsync, rename, fsync of
// the directory — so a crash never yields a half-written file under a final
// name, nor a rename that is lost after something was discarded on the
// strength of it. A checkpoint seals wal.log under its segment name and
// starts an empty one; no file is ever rewritten. Every one of these
// operations reaches the disk through the fileSystem seam (fs.go).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Typed decode errors. Callers distinguish a tolerable torn tail
// (ErrTruncated) from unrecoverable damage (ErrCorrupt) and ordering bugs
// (ErrBadSeq) with errors.Is.
var (
	// ErrTruncated reports a record or snapshot whose declared bytes run
	// past the end of the input — the torn-write signature of a crash
	// mid-append. Load tolerates it at the log tail.
	ErrTruncated = errors.New("wal: truncated record")
	// ErrCorrupt reports framing damage other than simple truncation: a
	// CRC mismatch over a fully present body, an implausible length, a
	// malformed body, or a bad snapshot magic.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrBadSeq reports a sequence gap or duplicate in the record stream.
	ErrBadSeq = errors.New("wal: sequence out of order")
)

const (
	logName     = "wal.log"
	segPrefix   = "wal-"
	segSuffix   = ".log"
	snapSuffix  = ".snap"
	snapPrefix  = "snapshot-"
	headerBytes = 8 // u32 length + u32 crc
	// maxBody bounds a single record body (and snapshot payload). Real
	// records are a few KiB; anything larger is framing damage, and the
	// bound keeps a corrupted length prefix from driving a giant
	// allocation during decode.
	maxBody = 1 << 26

	snapMagic       = "OWS1"
	snapHeaderBytes = 4 + 8 + 4 + 4 // magic + u64 seq + u32 length + u32 crc
)

// Record is one typed log entry. Payload is opaque to this package.
type Record struct {
	Seq     uint64
	Type    string
	Payload []byte
}

// AppendRecord encodes rec and appends the framed bytes to dst. The body is
// encoded in place after the header and the CRC backfilled over it, so no
// intermediate buffer is materialized — this sits on the durable hot path,
// once per logged operation.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	if len(rec.Type) == 0 || len(rec.Type) > 255 {
		return dst, fmt.Errorf("wal: record type length %d out of range [1,255]", len(rec.Type))
	}
	bodyLen := 8 + 1 + len(rec.Type) + len(rec.Payload)
	if bodyLen > maxBody {
		return dst, fmt.Errorf("wal: record body %d exceeds limit %d", bodyLen, maxBody)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	dst = append(dst, 0, 0, 0, 0) // CRC, backfilled once the body is in place
	crcAt := len(dst) - 4
	bodyAt := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Seq)
	dst = append(dst, byte(len(rec.Type)))
	dst = append(dst, rec.Type...)
	dst = append(dst, rec.Payload...)
	binary.LittleEndian.PutUint32(dst[crcAt:], crc32.ChecksumIEEE(dst[bodyAt:]))
	return dst, nil
}

// DecodeRecord decodes one framed record from the front of b, returning
// the record and the number of bytes consumed. Missing bytes relative to
// the declared length yield ErrTruncated; everything else wrong is
// ErrCorrupt.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < headerBytes {
		return Record{}, 0, ErrTruncated
	}
	bodyLen := int(binary.LittleEndian.Uint32(b[0:4]))
	if bodyLen < 9 || bodyLen > maxBody {
		return Record{}, 0, fmt.Errorf("%w: implausible body length %d", ErrCorrupt, bodyLen)
	}
	if len(b) < headerBytes+bodyLen {
		return Record{}, 0, ErrTruncated
	}
	wantCRC := binary.LittleEndian.Uint32(b[4:8])
	body := b[headerBytes : headerBytes+bodyLen]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	seq := binary.LittleEndian.Uint64(body[0:8])
	tl := int(body[8])
	if tl == 0 || 9+tl > bodyLen {
		return Record{}, 0, fmt.Errorf("%w: type length %d outside body", ErrCorrupt, tl)
	}
	rec := Record{
		Seq:     seq,
		Type:    string(body[9 : 9+tl]),
		Payload: append([]byte(nil), body[9+tl:]...),
	}
	return rec, headerBytes + bodyLen, nil
}

// DecodeStream decodes every record in b, enforcing contiguous sequence
// numbers. It stops cleanly at a truncated tail (returning truncated=true)
// but surfaces ErrCorrupt and ErrBadSeq as hard errors.
func DecodeStream(b []byte) (recs []Record, truncated bool, err error) {
	var prev uint64
	for len(b) > 0 {
		rec, n, err := DecodeRecord(b)
		if errors.Is(err, ErrTruncated) {
			return recs, true, nil
		}
		if err != nil {
			return recs, false, err
		}
		if len(recs) > 0 && rec.Seq != prev+1 {
			return recs, false, fmt.Errorf("%w: record %d follows %d", ErrBadSeq, rec.Seq, prev)
		}
		prev = rec.Seq
		recs = append(recs, rec)
		b = b[n:]
	}
	return recs, false, nil
}

// EncodeSnapshot frames a snapshot blob anchored at record sequence seq.
func EncodeSnapshot(seq uint64, payload []byte) ([]byte, error) {
	if len(payload) > maxBody {
		return nil, fmt.Errorf("wal: snapshot payload %d exceeds limit %d", len(payload), maxBody)
	}
	out := make([]byte, 0, snapHeaderBytes+len(payload))
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint64(out, seq)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...), nil
}

// DecodeSnapshot validates a framed snapshot file and returns its anchor
// sequence and payload. Short input is ErrTruncated; bad magic, CRC
// mismatch, implausible length or trailing garbage is ErrCorrupt.
func DecodeSnapshot(b []byte) (seq uint64, payload []byte, err error) {
	if len(b) < snapHeaderBytes {
		return 0, nil, ErrTruncated
	}
	if string(b[0:4]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: bad snapshot magic %q", ErrCorrupt, b[0:4])
	}
	seq = binary.LittleEndian.Uint64(b[4:12])
	n := int(binary.LittleEndian.Uint32(b[12:16]))
	if n > maxBody {
		return 0, nil, fmt.Errorf("%w: implausible snapshot length %d", ErrCorrupt, n)
	}
	if len(b) < snapHeaderBytes+n {
		return 0, nil, ErrTruncated
	}
	if len(b) != snapHeaderBytes+n {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrCorrupt, len(b)-snapHeaderBytes-n)
	}
	wantCRC := binary.LittleEndian.Uint32(b[16:20])
	payload = append([]byte(nil), b[20:20+n]...)
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return 0, nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	return seq, payload, nil
}

// Writer appends records to wal.log in a data directory with batched
// fsync: Append buffers in memory, Sync writes the batch and fsyncs. It is
// not safe for concurrent use; internal/core serializes access.
type Writer struct {
	fs   fileSystem
	dir  string
	f    file
	pend []byte
	seq  uint64
	// free is a single-slot recycling rack for pending buffers detached by
	// StageSync: at most one staged step is in flight at a time (the caller
	// serializes them), and its step returns the buffer here once the bytes
	// are on disk, so steady-state group commit appends into a warm buffer
	// instead of regrowing one from nil per group. Atomic because the step
	// runs outside the append lock.
	free atomic.Pointer[[]byte]
}

// Create opens (creating if needed) the write-ahead log in dir for
// appending. lastSeq is the sequence of the last record already present —
// 0 for a fresh directory, or Recovered.LastSeq when resuming after
// recovery. A directory it creates is fsynced into its parent before Create
// returns.
func Create(dir string, lastSeq uint64) (*Writer, error) {
	return create(osFS{}, dir, lastSeq)
}

func create(fsys fileSystem, dir string, lastSeq uint64) (*Writer, error) {
	// The directories whose entries must be durable before any fsynced
	// record in dir can be: dir itself, for the wal.log Create may make, and
	// the parent of each directory MkdirAll is about to make.
	syncs := []string{dir}
	for p := dir; ; p = filepath.Dir(p) {
		_, err := fsys.Stat(p)
		if err == nil {
			break
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("wal: create dir: %w", err)
		}
		syncs = append(syncs, filepath.Dir(p))
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	f, err := fsys.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	for _, d := range syncs {
		if err := syncDir(fsys, d); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: fsync dir: %w", err)
		}
	}
	return &Writer{fs: fsys, dir: dir, f: f, seq: lastSeq}, nil
}

// syncDir fsyncs a directory, making the creations and renames inside it
// durable.
func syncDir(fsys fileSystem, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileAtomic publishes data under dir/name so that a crash at any point
// leaves either the previous file or the complete new one: write to a
// temporary name, fsync, rename over the final name, fsync the directory —
// without the last step the rename itself can be lost, and with it whatever
// the caller went on to discard on the strength of it.
func writeFileAtomic(fsys fileSystem, dir, name string, data []byte) error {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, final)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return syncDir(fsys, dir)
}

// LastSeq returns the sequence of the most recently appended record.
//
// Kept: core's TestRecoverResumesAppending reads the log head with it.
func (w *Writer) LastSeq() uint64 { return w.seq }

// Append buffers one record. The sequence must be exactly LastSeq()+1.
func (w *Writer) Append(rec Record) error {
	if rec.Seq != w.seq+1 {
		return fmt.Errorf("%w: append %d after %d", ErrBadSeq, rec.Seq, w.seq)
	}
	if w.pend == nil {
		if p := w.free.Swap(nil); p != nil {
			w.pend = *p
		}
	}
	out, err := AppendRecord(w.pend, rec)
	if err != nil {
		return err
	}
	w.pend = out
	w.seq = rec.Seq
	return nil
}

// Sync writes all buffered records to the log and fsyncs — the batch
// commit point, a staged step run on the spot. A no-op when nothing is
// pending.
func (w *Writer) Sync() error {
	if len(w.pend) == 0 {
		return nil
	}
	return w.StageSync()()
}

// StageSync detaches the buffered records and returns a step that writes
// them to the log and fsyncs — the two halves of Sync split apart so a
// group-commit leader can run the slow half outside the append lock while
// followers keep buffering new records into a fresh pending buffer.
//
// The caller must serialize staged steps (only one in flight at a time, in
// staging order) so file bytes land in sequence order, and must not call
// Snapshot or Close while a staged step is outstanding: both may replace
// the underlying file handle, which the step captured at staging time. The
// step always fsyncs, even when nothing was pending, so it can double as a
// pure durability barrier.
func (w *Writer) StageSync() func() error {
	pend := w.pend
	w.pend = nil
	f := w.f
	return func() error {
		if len(pend) > 0 {
			if _, err := f.Write(pend); err != nil {
				return fmt.Errorf("wal: write batch: %w", err)
			}
			buf := pend[:0]
			w.free.Store(&buf)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		return nil
	}
}

// Snapshot durably writes a checkpoint anchored at record sequence seq:
// the framed blob is published as snapshot-<seq>.snap by writeFileAtomic.
// Pending records are synced first so the snapshot never anchors ahead of
// the durable log.
//
// The checkpoint then rotates the log: wal.log is sealed as wal-<last>.log
// and appends continue in a fresh wal.log, the rename and the create made
// durable by one directory fsync. Only after that is the directory pruned
// to one fallback generation: with prev the newest older checkpoint,
// snapshots below prev and segments ending at or below it are deleted, so
// a damaged newest snapshot still recovers from prev plus the segments
// after it. Disk usage is bounded by roughly two checkpoint intervals
// instead of the full history, and no file is ever read back or rewritten.
func (w *Writer) Snapshot(seq uint64, payload []byte) error {
	if err := w.Sync(); err != nil {
		return err
	}
	framed, err := EncodeSnapshot(seq, payload)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(w.fs, w.dir, seqName(snapPrefix, seq, snapSuffix), framed); err != nil {
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	// An empty wal.log holds no record since the last rotation: sealing it
	// would name a second segment after the same last record.
	path := filepath.Join(w.dir, logName)
	if st, err := w.fs.Stat(path); err != nil {
		return fmt.Errorf("wal: stat log: %w", err)
	} else if st.Size() > 0 {
		if err := w.fs.Rename(path, filepath.Join(w.dir, seqName(segPrefix, w.seq, segSuffix))); err != nil {
			return fmt.Errorf("wal: seal log: %w", err)
		}
		nf, err := w.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: open log: %w", err)
		}
		sealed := w.f
		w.f = nf
		if err := sealed.Close(); err != nil {
			return fmt.Errorf("wal: close sealed log: %w", err)
		}
		if err := syncDir(w.fs, w.dir); err != nil {
			return fmt.Errorf("wal: fsync dir: %w", err)
		}
	}
	// Prune to one fallback generation, prev; before a second checkpoint
	// prev is 0 and every segment is kept. Pruning only saves space, so a
	// directory it cannot list or a file it cannot remove is left for the
	// next checkpoint: their errors are dropped.
	var prev uint64
	snaps, segs, _ := seqFiles(w.fs, w.dir)
	for _, n := range snaps {
		if n < seq && prev == 0 {
			prev = n
		} else if n < prev {
			w.fs.Remove(filepath.Join(w.dir, seqName(snapPrefix, n, snapSuffix)))
		}
	}
	for _, n := range segs {
		if n <= prev {
			w.fs.Remove(filepath.Join(w.dir, seqName(segPrefix, n, segSuffix)))
		}
	}
	return nil
}

// seqName names a snapshot or segment file after its sequence number.
func seqName(prefix string, n uint64, suffix string) string {
	return prefix + strconv.FormatUint(n, 10) + suffix
}

// seqFiles lists dir once and returns the sequence numbers of its snapshots
// (snapPrefix<seq>snapSuffix) and sealed segments (segPrefix<seq>segSuffix),
// each newest first.
func seqFiles(fsys fileSystem, dir string) (snaps, segs []uint64, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if n, ok := seqOf(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		} else if n, ok := seqOf(name, segPrefix, segSuffix); ok {
			segs = append(segs, n)
		}
	}
	for _, seqs := range [][]uint64{snaps, segs} {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	}
	return snaps, segs, nil
}

// seqOf parses the sequence number of a file named prefix<seq>suffix.
func seqOf(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	return n, err == nil
}

// Close syncs pending records and closes the log file.
func (w *Writer) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Recovered is the durable state Load reconstructs from a data directory.
type Recovered struct {
	// SnapshotSeq anchors the snapshot: all records with Seq <=
	// SnapshotSeq are folded into it. Zero when no snapshot exists.
	SnapshotSeq uint64
	// Snapshot is the raw checkpoint blob (nil without a snapshot).
	Snapshot []byte
	// Records is the log tail to replay, strictly after SnapshotSeq.
	Records []Record
	// LastSeq is the last durable record sequence (snapshot anchor when
	// the tail is empty).
	LastSeq uint64
	// TornTail reports that wal.log ended in a partially written record,
	// which was discarded.
	TornTail bool
	// LogBytes is the byte length of wal.log's valid prefix (the whole
	// file unless TornTail); sealed segments do not count. Repair
	// truncates to it before re-appending.
	LogBytes int64
}

// Repair truncates wal.log in dir to validBytes, discarding a torn tail so
// a new Writer's appends continue the valid record stream. Sealed segments
// never need it. Call it with Recovered.LogBytes when Recovered.TornTail is
// set, before Create.
func Repair(dir string, validBytes int64) error {
	return repair(osFS{}, dir, validBytes)
}

func repair(fsys fileSystem, dir string, validBytes int64) error {
	if err := fsys.Truncate(filepath.Join(dir, logName), validBytes); err != nil {
		return fmt.Errorf("wal: repair log: %w", err)
	}
	return nil
}

// Load reads the latest usable snapshot plus the log tail from dir: the
// sealed segments oldest first, then wal.log. A missing directory or empty
// log yields an empty Recovered, not an error, and so does a missing
// wal.log (a crash between sealing it and creating its successor). The
// newest snapshot wins; if its file is damaged, older snapshots are tried
// before falling back to full-log replay. Log damage other than a torn
// tail of wal.log is a hard error: a segment was fsynced whole before it
// was sealed, so one that ends mid-record is ErrCorrupt.
func Load(dir string) (*Recovered, error) {
	return load(osFS{}, dir)
}

func load(fsys fileSystem, dir string) (*Recovered, error) {
	out := &Recovered{}

	if _, err := fsys.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return out, nil
	} else if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}

	snaps, segs, err := seqFiles(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	for _, n := range snaps {
		raw, err := fsys.ReadFile(filepath.Join(dir, seqName(snapPrefix, n, snapSuffix)))
		if err != nil {
			continue
		}
		seq, payload, err := DecodeSnapshot(raw)
		if err != nil || seq != n {
			continue // damaged checkpoint: fall back to an older one
		}
		out.SnapshotSeq = seq
		out.Snapshot = payload
		break
	}

	var recs []Record
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i] <= out.SnapshotSeq {
			continue // folded into the snapshot whole
		}
		name := seqName(segPrefix, segs[i], segSuffix)
		raw, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("wal: read segment: %w", err)
		}
		seg, torn, err := DecodeStream(raw)
		if err == nil && torn {
			err = fmt.Errorf("%w: sealed segment %s ends mid-record", ErrCorrupt, name)
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, seg...)
	}

	raw, err := fsys.ReadFile(filepath.Join(dir, logName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: read log: %w", err)
	}
	tail, torn, err := DecodeStream(raw)
	if err != nil {
		return nil, err
	}
	recs = append(recs, tail...)
	// The valid prefix is the decoded records' framing: a new Writer must
	// not append after a torn fragment (Repair truncates to here).
	out.TornTail = torn
	for _, rec := range tail {
		out.LogBytes += int64(headerBytes + 8 + 1 + len(rec.Type) + len(rec.Payload))
	}
	// Continuity is checked across files as well as within one.
	out.LastSeq = out.SnapshotSeq
	for _, rec := range recs {
		if rec.Seq <= out.SnapshotSeq {
			continue
		}
		if rec.Seq != out.LastSeq+1 {
			return nil, fmt.Errorf("%w: tail record %d after snapshot anchor %d", ErrBadSeq, rec.Seq, out.LastSeq)
		}
		out.Records = append(out.Records, rec)
		out.LastSeq = rec.Seq
	}
	return out, nil
}
