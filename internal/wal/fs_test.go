package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// errInjected is the fault faultFS injects.
var errInjected = errors.New("injected fault")

// faultFS is the real file system with every operation logged, handle
// operations included, as "<op> <path relative to root>". fail sees each
// operation's 1-based number and log entry, and an operation it returns
// true for fails with errInjected before it reaches the disk.
type faultFS struct {
	root string
	ops  []string
	fail func(n int, op string) bool
}

func (f *faultFS) do(op, name string) error {
	rel, err := filepath.Rel(f.root, name)
	if err != nil {
		rel = name
	}
	entry := op + " " + rel
	f.ops = append(f.ops, entry)
	if f.fail != nil && f.fail(len(f.ops), entry) {
		return fmt.Errorf("%s: %w", entry, errInjected)
	}
	return nil
}

func (f *faultFS) MkdirAll(dir string, perm os.FileMode) error {
	if err := f.do("mkdirall", dir); err != nil {
		return err
	}
	return osFS{}.MkdirAll(dir, perm)
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	if err := f.do("open", name); err != nil {
		return nil, err
	}
	h, err := osFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{file: h, fs: f, name: name}, nil
}

func (f *faultFS) Rename(from, to string) error {
	if err := f.do("rename", from); err != nil {
		return err
	}
	return osFS{}.Rename(from, to)
}

func (f *faultFS) Remove(name string) error {
	if err := f.do("remove", name); err != nil {
		return err
	}
	return osFS{}.Remove(name)
}

func (f *faultFS) ReadDir(dir string) ([]os.DirEntry, error) {
	if err := f.do("readdir", dir); err != nil {
		return nil, err
	}
	return osFS{}.ReadDir(dir)
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if err := f.do("readfile", name); err != nil {
		return nil, err
	}
	return osFS{}.ReadFile(name)
}

func (f *faultFS) Truncate(name string, size int64) error {
	if err := f.do("truncate", name); err != nil {
		return err
	}
	return osFS{}.Truncate(name, size)
}

func (f *faultFS) Stat(name string) (os.FileInfo, error) {
	if err := f.do("stat", name); err != nil {
		return nil, err
	}
	return osFS{}.Stat(name)
}

// faultFile is a handle faultFS opened; its operations are logged and
// failed like the file system's.
type faultFile struct {
	file
	fs   *faultFS
	name string
}

func (h *faultFile) Write(p []byte) (int, error) {
	if err := h.fs.do("write", h.name); err != nil {
		return 0, err
	}
	return h.file.Write(p)
}

func (h *faultFile) Sync() error {
	if err := h.fs.do("sync", h.name); err != nil {
		return err
	}
	return h.file.Sync()
}

func (h *faultFile) Close() error {
	if err := h.fs.do("close", h.name); err != nil {
		return err
	}
	return h.file.Close()
}

// TestLoadFailsOnUnlistableDir: after a rotation every record lives in a
// snapshot or a sealed segment and wal.log is empty, so a Load that took a
// directory it cannot list for one holding neither would recover nothing —
// and the writer resumed on it would restart at sequence 1 behind the
// snapshot. It must fail instead.
func TestLoadFailsOnUnlistableDir(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		mustAppend(t, w, seq, "op", "x")
	}
	if err := w.Snapshot(5, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := mustLoad(t, dir); rec.LastSeq != 5 || rec.SnapshotSeq != 5 {
		t.Fatalf("clean load: last %d snapshot %d, want 5 and 5", rec.LastSeq, rec.SnapshotSeq)
	}

	// Load lists the directory once, for snapshots and segments alike; fail
	// each listing in turn.
	listings := func(failNth int) (int, *Recovered, error) {
		n := 0
		fsys := &faultFS{root: dir, fail: func(_ int, op string) bool {
			if strings.HasPrefix(op, "readdir ") {
				n++
				return n == failNth
			}
			return false
		}}
		rec, err := load(fsys, dir)
		return n, rec, err
	}
	clean, _, err := listings(0)
	if err != nil || clean != 1 {
		t.Fatalf("a clean load listed the directory %d times (%v), want once", clean, err)
	}
	for nth := 1; nth <= clean; nth++ {
		if _, rec, err := listings(nth); !errors.Is(err, errInjected) {
			t.Errorf("load failing listing %d returned %+v, %v; want the ReadDir error", nth, rec, err)
		}
	}
}

// TestRepairReportsTruncateFault: a torn tail Repair could not cut off must
// stop recovery, or the next writer appends after the fragment.
func TestRepairReportsTruncateFault(t *testing.T) {
	dir := t.TempDir()
	fsys := &faultFS{root: dir, fail: func(_ int, op string) bool { return op == "truncate wal.log" }}
	if err := repair(fsys, dir, 0); !errors.Is(err, errInjected) {
		t.Fatalf("repair: %v, want the truncate fault", err)
	}
}

// TestCreateSyncsNewDirEntry: a directory Create makes is an entry in its
// parent, durable only once the parent is fsynced; without that a power cut
// after the first acknowledged commit can lose the whole log. Every level
// MkdirAll makes gets its parent synced, and a directory that already
// exists costs no extra fsync.
func TestCreateSyncsNewDirEntry(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b")
	fsys := &faultFS{root: root}
	w, err := create(fsys, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	made := slices.Index(fsys.ops, "mkdirall a/b")
	if made < 0 {
		t.Fatalf("ops %q: no mkdirall of the data directory", fsys.ops)
	}
	for _, parent := range []string{"a", "."} {
		if i := slices.Index(fsys.ops, "sync "+parent); i < made {
			t.Errorf("ops %q: want %q fsynced after the directory's creation", fsys.ops, parent)
		}
	}

	again := &faultFS{root: root}
	w, err = create(again, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(again.ops, "sync a") || slices.Contains(again.ops, "sync .") {
		t.Errorf("ops %q: an existing directory's parents were fsynced again", again.ops)
	}
}

// faultScript drives a writer in dir through every step that touches the
// disk: Create, one staged commit step, two checkpoints (the second prunes
// the first one's segment) and Close. It stops at the first error and
// returns it with the last sequence a completed durability call covered.
func faultScript(fsys fileSystem, dir string) (acked uint64, err error) {
	w, err := create(fsys, dir, 0)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			w.f.Close() // the handle a failed writer leaves open
		}
	}()
	steps := []struct {
		last    uint64
		durable func() error
	}{
		{2, func() error { return w.StageSync()() }},
		{3, func() error { return w.Snapshot(3, []byte{3}) }},
		{4, func() error { return w.Snapshot(4, []byte{4}) }},
		{5, w.Close},
	}
	for _, st := range steps {
		for seq := w.LastSeq() + 1; seq <= st.last; seq++ {
			if err := w.Append(Record{Seq: seq, Type: "op", Payload: []byte{byte(seq)}}); err != nil {
				return acked, err
			}
		}
		if err := st.durable(); err != nil {
			return acked, err
		}
		acked = st.last
	}
	return acked, nil
}

// TestEveryFileSystemStepFails fails each file-system operation of
// faultScript in turn. The failing call must return an error that wraps the
// fault — except a checkpoint's prune, whose listing and removals only
// reclaim space — and the directory it leaves must load, with the fault
// gone, to every record a completed call acknowledged and nothing that is
// not one of the records written.
func TestEveryFileSystemStepFails(t *testing.T) {
	clean := &faultFS{root: t.TempDir()}
	if acked, err := faultScript(clean, filepath.Join(clean.root, "data")); err != nil || acked != 5 {
		t.Fatalf("fault-free script: acked %d, %v", acked, err)
	}
	for k := 1; k <= len(clean.ops); k++ {
		op := clean.ops[k-1]
		root := t.TempDir()
		dir := filepath.Join(root, "data")
		fsys := &faultFS{root: root, fail: func(n int, _ string) bool { return n == k }}
		acked, err := faultScript(fsys, dir)
		if len(fsys.ops) < k || fsys.ops[k-1] != op {
			t.Fatalf("fault %d: the script diverged before reaching %q", k, op)
		}
		if strings.HasPrefix(op, "readdir ") || strings.HasPrefix(op, "remove ") {
			if err != nil || acked != 5 {
				t.Errorf("fault %d (%s), a prune step: acked %d, %v; want the script to complete", k, op, acked, err)
			}
		} else if !errors.Is(err, errInjected) {
			t.Errorf("fault %d (%s): got %v, want an error wrapping the fault", k, op, err)
		}

		rec, err := Load(dir)
		if err != nil {
			t.Errorf("fault %d (%s): load: %v", k, op, err)
			continue
		}
		if rec.LastSeq < acked {
			t.Errorf("fault %d (%s): loaded up to %d, but %d was acknowledged", k, op, rec.LastSeq, acked)
		}
		if rec.SnapshotSeq != 0 && !bytes.Equal(rec.Snapshot, []byte{byte(rec.SnapshotSeq)}) {
			t.Errorf("fault %d (%s): snapshot %d holds %v", k, op, rec.SnapshotSeq, rec.Snapshot)
		}
		for i, r := range rec.Records {
			if want := rec.SnapshotSeq + uint64(i) + 1; r.Seq != want || !bytes.Equal(r.Payload, []byte{byte(want)}) {
				t.Errorf("fault %d (%s): record %d is %d %v", k, op, i, r.Seq, r.Payload)
			}
		}
	}
	t.Logf("%d file-system operations, each failed in turn", len(clean.ops))
}
