package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeRecords writes framed records from..to (inclusive) to dir/name.
func writeRecords(t *testing.T, dir, name string, from, to uint64) {
	t.Helper()
	var buf []byte
	for seq := from; seq <= to; seq++ {
		var err error
		if buf, err = AppendRecord(buf, Record{Seq: seq, Type: "op", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustLoad(t *testing.T, dir string) *Recovered {
	t.Helper()
	rec, err := Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return rec
}

// wantTail fails unless rec anchors at snap and its tail is exactly
// from..to.
func wantTail(t *testing.T, rec *Recovered, snap, from, to uint64) {
	t.Helper()
	if rec.SnapshotSeq != snap || rec.LastSeq != to || len(rec.Records) != int(to-from+1) {
		t.Fatalf("anchor %d, %d records, last %d; want anchor %d, records %d..%d",
			rec.SnapshotSeq, len(rec.Records), rec.LastSeq, snap, from, to)
	}
	for i, r := range rec.Records {
		if r.Seq != from+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, from+uint64(i))
		}
	}
}

// TestRotationCrashStates builds every directory a crash inside a
// checkpoint's rotation can leave — the snapshot published but wal.log not
// yet sealed, wal.log sealed but no successor created, the successor
// created but nothing pruned — and requires each to load exactly as the
// completed checkpoint does, and a writer resumed on it to continue the
// stream. The checkpoint anchors at 8 while the log runs to 10, so the
// sealed segment holds records on both sides of the anchor.
func TestRotationCrashStates(t *testing.T) {
	// prepare leaves snapshot-2, snapshot-4, wal-4.log (3..4) and wal.log
	// (5..10) — the directory the checkpoint at 8 starts from.
	prepare := func(t *testing.T) (string, *Writer) {
		dir := t.TempDir()
		w, err := Create(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 10; seq++ {
			mustAppend(t, w, seq, "op", "x")
			if seq == 2 || seq == 4 {
				if err := w.Snapshot(seq, []byte{byte(seq)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		return dir, w
	}
	publish := func(t *testing.T, dir string) {
		framed, err := EncodeSnapshot(8, []byte{8})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFileAtomic(osFS{}, dir, "snapshot-8.snap", framed); err != nil {
			t.Fatal(err)
		}
	}
	seal := func(t *testing.T, dir string) {
		if err := os.Rename(filepath.Join(dir, logName), filepath.Join(dir, "wal-10.log")); err != nil {
			t.Fatal(err)
		}
	}
	states := []struct {
		name  string
		crash func(t *testing.T, dir string)
		snaps []string
		segs  []string
	}{
		{"published-not-sealed", publish,
			[]string{"snapshot-2.snap", "snapshot-4.snap", "snapshot-8.snap"}, []string{"wal-4.log"}},
		{"sealed-no-successor", func(t *testing.T, dir string) { publish(t, dir); seal(t, dir) },
			[]string{"snapshot-2.snap", "snapshot-4.snap", "snapshot-8.snap"}, []string{"wal-10.log", "wal-4.log"}},
		{"successor-not-pruned", func(t *testing.T, dir string) {
			publish(t, dir)
			seal(t, dir)
			if err := os.WriteFile(filepath.Join(dir, logName), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}, []string{"snapshot-2.snap", "snapshot-4.snap", "snapshot-8.snap"}, []string{"wal-10.log", "wal-4.log"}},
		{"completed", nil, []string{"snapshot-4.snap", "snapshot-8.snap"}, []string{"wal-10.log"}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			dir, w := prepare(t)
			if st.crash == nil {
				if err := w.Snapshot(8, []byte{8}); err != nil {
					t.Fatal(err)
				}
			} else {
				st.crash(t, dir) // the writer's handle dies with the process
			}
			w.f.Close()
			if got := snapFiles(t, dir); !reflect.DeepEqual(got, st.snaps) {
				t.Fatalf("snapshots %v, want %v", got, st.snaps)
			}
			if got := segFiles(t, dir); !reflect.DeepEqual(got, st.segs) {
				t.Fatalf("segments %v, want %v", got, st.segs)
			}
			rec := mustLoad(t, dir)
			wantTail(t, rec, 8, 9, 10)
			if rec.TornTail {
				t.Fatal("torn tail reported")
			}

			w2, err := Create(dir, rec.LastSeq)
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, w2, 11, "op", "y")
			mustAppend(t, w2, 12, "op", "y")
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			wantTail(t, mustLoad(t, dir), 8, 9, 12)
		})
	}
}

// TestSnapshotWithoutNewRecordsSealsNothing: a checkpoint that finds
// wal.log empty — nothing appended since the last rotation, or a writer
// resumed after a crash between sealing and creating the successor — leaves
// the segment set alone, so two segments never share a name.
func TestSnapshotWithoutNewRecordsSealsNothing(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		mustAppend(t, w, seq, "op", "x")
	}
	if err := w.Snapshot(2, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(4, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if got := segFiles(t, dir); !reflect.DeepEqual(got, []string{"wal-4.log"}) {
		t.Fatalf("segments %v, want [wal-4.log]", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash between seal and create: no wal.log at all.
	if err := os.Remove(filepath.Join(dir, logName)); err != nil {
		t.Fatal(err)
	}
	rec := mustLoad(t, dir)
	wantTail(t, rec, 4, 5, 4)
	w2, err := Create(dir, rec.LastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Snapshot(4, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if got := segFiles(t, dir); !reflect.DeepEqual(got, []string{"wal-4.log"}) {
		t.Fatalf("segments after an empty rotation %v, want [wal-4.log]", got)
	}
	mustAppend(t, w2, 5, "op", "y")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	// The fallback generation (anchor 2) still reaches the tail through
	// the kept segment.
	if err := os.Remove(filepath.Join(dir, "snapshot-4.snap")); err != nil {
		t.Fatal(err)
	}
	wantTail(t, mustLoad(t, dir), 2, 3, 5)
}

// TestTornSealedSegmentIsCorrupt: a segment was fsynced whole before it
// was sealed, so one that ends mid-record is damage, not a torn write.
func TestTornSealedSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		mustAppend(t, w, seq, "op", "x")
	}
	if err := w.Snapshot(2, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-4.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestSingleLogLayoutLoads: a directory written before rotation — one
// wal.log that still holds records folded into both of its snapshots —
// loads to the same Recovered it always did, falls back the same way, and
// rotates cleanly on its next checkpoint.
func TestSingleLogLayoutLoads(t *testing.T) {
	dir := t.TempDir()
	writeRecords(t, dir, logName, 1, 12)
	for _, s := range []struct {
		seq  uint64
		blob string
	}{{4, "gen1"}, {8, "gen2"}} {
		framed, err := EncodeSnapshot(s.seq, []byte(s.blob))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, seqName(snapPrefix, s.seq, snapSuffix)), framed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := DecodeStream(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := &Recovered{SnapshotSeq: 8, Snapshot: []byte("gen2"), Records: all[8:], LastSeq: 12, LogBytes: int64(len(raw))}
	if got := mustLoad(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}

	w, err := Create(dir, 12)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, 13, "op", "x")
	if err := w.Snapshot(13, []byte("gen3")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := segFiles(t, dir); !reflect.DeepEqual(got, []string{"wal-13.log"}) {
		t.Fatalf("segments %v, want [wal-13.log]", got)
	}
	if got := snapFiles(t, dir); !reflect.DeepEqual(got, []string{"snapshot-13.snap", "snapshot-8.snap"}) {
		t.Fatalf("snapshots %v, want [snapshot-13.snap snapshot-8.snap]", got)
	}
	// The old log, now a segment, still backs the fallback to gen2.
	if err := os.Remove(filepath.Join(dir, "snapshot-13.snap")); err != nil {
		t.Fatal(err)
	}
	rec := mustLoad(t, dir)
	if string(rec.Snapshot) != "gen2" {
		t.Fatalf("fallback blob %q, want gen2", rec.Snapshot)
	}
	wantTail(t, rec, 8, 9, 13)
}
