package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func mustAppend(t *testing.T, w *Writer, seq uint64, typ string, payload string) {
	t.Helper()
	if err := w.Append(Record{Seq: seq, Type: typ, Payload: []byte(payload)}); err != nil {
		t.Fatalf("append %d: %v", seq, err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, 1, "admit", `{"id":"s-1"}`)
	mustAppend(t, w, 2, "epoch", `{"n":1}`)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, 3, "teardown", `{"id":"s-1"}`)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 0 || rec.Snapshot != nil {
		t.Fatalf("unexpected snapshot: seq=%d", rec.SnapshotSeq)
	}
	if len(rec.Records) != 3 || rec.LastSeq != 3 || rec.TornTail {
		t.Fatalf("got %d records, last %d, torn %v", len(rec.Records), rec.LastSeq, rec.TornTail)
	}
	if rec.Records[1].Type != "epoch" || string(rec.Records[1].Payload) != `{"n":1}` {
		t.Fatalf("record 2 mismatch: %+v", rec.Records[1])
	}
}

// TestStageSyncInterleavesAppends proves the group-commit split: records
// appended after StageSync detached the buffer are not written by the
// staged step, land in a fresh pending buffer, and a later step (or Sync)
// appends them after the staged batch — the byte stream stays in sequence
// order even though the steps ran long after their capture.
func TestStageSyncInterleavesAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, 1, "admit", "a")
	mustAppend(t, w, 2, "admit", "b")
	step1 := w.StageSync()
	// Concurrent-in-spirit appends while the first flush is "in flight".
	mustAppend(t, w, 3, "admit", "c")
	mustAppend(t, w, 4, "teardown", "d")
	if err := step1(); err != nil {
		t.Fatal(err)
	}
	rec, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.LastSeq != 2 {
		t.Fatalf("staged flush wrote %d records, last %d; want 2", len(rec.Records), rec.LastSeq)
	}
	step2 := w.StageSync()
	if err := step2(); err != nil {
		t.Fatal(err)
	}
	// An empty-buffer step is a pure durability barrier, not an error.
	if err := w.StageSync()(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 4 || rec.LastSeq != 4 || rec.TornTail {
		t.Fatalf("got %d records, last %d, torn %v; want 4 in order", len(rec.Records), rec.LastSeq, rec.TornTail)
	}
	for i, typ := range []string{"admit", "admit", "admit", "teardown"} {
		if rec.Records[i].Seq != uint64(i+1) || rec.Records[i].Type != typ {
			t.Fatalf("record %d out of order: %+v", i, rec.Records[i])
		}
	}
}

func TestAppendRejectsBadSeq(t *testing.T) {
	w, err := Create(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mustAppend(t, w, 1, "a", "")
	if err := w.Append(Record{Seq: 3, Type: "a"}); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("gap: got %v, want ErrBadSeq", err)
	}
	if err := w.Append(Record{Seq: 1, Type: "a"}); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("duplicate: got %v, want ErrBadSeq", err)
	}
}

func TestSnapshotAnchorsTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		mustAppend(t, w, seq, "op", "x")
	}
	if err := w.Snapshot(5, []byte(`{"state":"five"}`)); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, 6, "op", "y")
	mustAppend(t, w, 7, "op", "z")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 5 || string(rec.Snapshot) != `{"state":"five"}` {
		t.Fatalf("snapshot: seq=%d blob=%q", rec.SnapshotSeq, rec.Snapshot)
	}
	if len(rec.Records) != 2 || rec.Records[0].Seq != 6 || rec.LastSeq != 7 {
		t.Fatalf("tail: %+v last=%d", rec.Records, rec.LastSeq)
	}
}

func TestNewestDamagedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		mustAppend(t, w, seq, "op", "x")
	}
	if err := w.Snapshot(2, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(4, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit of the newest snapshot.
	path := filepath.Join(dir, "snapshot-4.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 2 || string(rec.Snapshot) != "old" {
		t.Fatalf("fallback: seq=%d blob=%q", rec.SnapshotSeq, rec.Snapshot)
	}
	if len(rec.Records) != 2 || rec.Records[0].Seq != 3 {
		t.Fatalf("tail after fallback: %+v", rec.Records)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, 1, "op", "keep")
	mustAppend(t, w, 2, "op", "lost-in-the-crash")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the second record.
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail || len(rec.Records) != 1 || rec.LastSeq != 1 {
		t.Fatalf("torn tail: torn=%v records=%d last=%d", rec.TornTail, len(rec.Records), rec.LastSeq)
	}
}

func TestMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, 1, "op", "aaaa")
	mustAppend(t, w, 2, "op", "bbbb")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[12] ^= 0x40 // damage the first record's body
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestDuplicateSeqRejected(t *testing.T) {
	var buf []byte
	var err error
	for _, seq := range []uint64{1, 2, 2} {
		buf, err = AppendRecord(buf, Record{Seq: seq, Type: "op", Payload: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := DecodeStream(buf); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("got %v, want ErrBadSeq", err)
	}
}

func TestLoadMissingDirIsEmpty(t *testing.T) {
	rec, err := Load(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 0 || len(rec.Records) != 0 || rec.Snapshot != nil {
		t.Fatalf("want empty recovery, got %+v", rec)
	}
}

func TestWriterResumesAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, 1, "op", "x")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Create(dir, rec.LastSeq)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w2, 2, "op", "y")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.LastSeq != 2 || len(rec2.Records) != 2 {
		t.Fatalf("resume: last=%d records=%d", rec2.LastSeq, len(rec2.Records))
	}
}

// snapFiles lists the snapshot file names present in dir, sorted.
func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == snapSuffix {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// segFiles lists the sealed segment names present in dir, sorted.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	out, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		out[i] = filepath.Base(out[i])
	}
	sort.Strings(out)
	return out
}

// TestSnapshotRotatesLog proves checkpointing bounds the directory: each
// snapshot seals wal.log as a segment, and each one after the first
// garbage-collects snapshots older than the previous generation and the
// segments that previous generation folded in, while the retained
// generation still backstops a damaged newest snapshot.
func TestSnapshotRotatesLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		mustAppend(t, w, seq, "op", "x")
	}
	if err := w.Snapshot(4, []byte("gen1")); err != nil {
		t.Fatal(err)
	}
	// First checkpoint: the full log is sealed and kept as the fallback.
	if got := segFiles(t, dir); len(got) != 1 || got[0] != "wal-4.log" {
		t.Fatalf("segments after first snapshot: %v, want [wal-4.log]", got)
	}

	for seq := uint64(5); seq <= 8; seq++ {
		mustAppend(t, w, seq, "op", "y")
	}
	if err := w.Snapshot(8, []byte("gen2")); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint: the segment folded into gen1 is dropped.
	if got := segFiles(t, dir); len(got) != 1 || got[0] != "wal-8.log" {
		t.Fatalf("segments after second snapshot: %v, want [wal-8.log]", got)
	}

	for seq := uint64(9); seq <= 10; seq++ {
		mustAppend(t, w, seq, "op", "z")
	}
	if err := w.Snapshot(10, []byte("gen3")); err != nil {
		t.Fatal(err)
	}
	// Third checkpoint: gen1 is older than the retained generation — gone.
	if got := snapFiles(t, dir); len(got) != 2 || got[0] != "snapshot-10.snap" || got[1] != "snapshot-8.snap" {
		t.Fatalf("snapshots after GC: %v, want [snapshot-10.snap snapshot-8.snap]", got)
	}

	// The writer's handle follows the rotation: appends after it must be
	// visible to the next Load.
	mustAppend(t, w, 11, "op", "tail")
	mustAppend(t, w, 12, "op", "tail")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 10 || string(rec.Snapshot) != "gen3" {
		t.Fatalf("newest: seq=%d blob=%q", rec.SnapshotSeq, rec.Snapshot)
	}
	if len(rec.Records) != 2 || rec.Records[0].Seq != 11 || rec.LastSeq != 12 {
		t.Fatalf("tail: %+v last=%d", rec.Records, rec.LastSeq)
	}

	// Damage the newest snapshot: the retained previous generation plus the
	// segment after it still recover the full tail.
	path := filepath.Join(dir, "snapshot-10.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 8 || string(rec.Snapshot) != "gen2" {
		t.Fatalf("fallback: seq=%d blob=%q", rec.SnapshotSeq, rec.Snapshot)
	}
	if len(rec.Records) != 4 || rec.Records[0].Seq != 9 || rec.LastSeq != 12 {
		t.Fatalf("fallback tail: %+v last=%d", rec.Records, rec.LastSeq)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	framed, err := EncodeSnapshot(42, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	seq, payload, err := DecodeSnapshot(framed)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || !bytes.Equal(payload, []byte("payload")) {
		t.Fatalf("got seq=%d payload=%q", seq, payload)
	}
	if _, _, err := DecodeSnapshot(append(framed, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: got %v, want ErrCorrupt", err)
	}
	if _, _, err := DecodeSnapshot(framed[:len(framed)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short payload: got %v, want ErrTruncated", err)
	}
}
