package crashtest

// Regression tests for resize→teardown→crash interleavings: a WAL tail that
// resizes a slice and then tears it down must replay cleanly from every
// crash prefix inside the window, and a torn or hand-truncated image that
// replays a resize against a slice the snapshot no longer holds live must
// degrade to a skip — never abort recovery, never resurrect the ledger
// capacity the teardown released.

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/slice"
	"repro/internal/wal"
)

// slicedPayload extracts the slice ID shared by resize and teardown records
// from their core.RecordJSON rendering (the wire layout is core's business).
type slicedPayload struct {
	Record struct {
		Slice slice.ID `json:"slice"`
	} `json:"record"`
}

func sliceOf(t *testing.T, n int, rec wal.Record) slice.ID {
	t.Helper()
	js, err := core.RecordJSON(rec)
	if err != nil {
		t.Fatalf("record %d: %v", n, err)
	}
	var p slicedPayload
	if err := json.Unmarshal(js, &p); err != nil {
		t.Fatalf("record %d: %v", n, err)
	}
	return p.Record.Slice
}

// resizeTeardownPair is one (resize record, later teardown record of the
// same slice) occurrence; indices are record counts into the reference log.
type resizeTeardownPair struct {
	id            slice.ID
	resize, death int // 1-based record prefix lengths (crash "after record")
}

// findPairs scans a reference log for every slice whose teardown is
// preceded by at least one resize, keeping the last resize before the
// teardown (the tightest window — the interleavings between them are the
// ones the recovery path must survive).
func findPairs(t *testing.T, ref *Reference) []resizeTeardownPair {
	t.Helper()
	lastResize := make(map[slice.ID]int)
	var pairs []resizeTeardownPair
	for i, rec := range ref.Sink.Records {
		switch rec.Type {
		case "resize":
			lastResize[sliceOf(t, i+1, rec)] = i + 1
		case "teardown":
			id := sliceOf(t, i+1, rec)
			if r, ok := lastResize[id]; ok {
				pairs = append(pairs, resizeTeardownPair{id: id, resize: r, death: i + 1})
			}
		}
	}
	return pairs
}

// referenceWithPairs runs chaos scenarios until one yields resize→teardown
// windows (C2's failure/degradation churn reliably does).
func referenceWithPairs(t *testing.T) (*Reference, []resizeTeardownPair) {
	t.Helper()
	for _, name := range scenario.ChaosNames() {
		ref, err := RunReference(name, 7, 4)
		if err != nil {
			t.Fatalf("reference run %s: %v", name, err)
		}
		if pairs := findPairs(t, ref); len(pairs) > 0 {
			t.Logf("%s: %d records, %d resize→teardown windows", name, len(ref.Sink.Records), len(pairs))
			return ref, pairs
		}
	}
	t.Fatal("no chaos scenario produced a resize→teardown window")
	return nil, nil
}

// TestResizeTeardownCrashWindows crashes at every prefix inside every
// resize→teardown window — resize durable but teardown not, both durable,
// and every interleaved record in between — and requires recovery to
// succeed, pass a full invariant sweep, and reproduce the reference digest
// at commit boundaries.
func TestResizeTeardownCrashWindows(t *testing.T) {
	ref, pairs := referenceWithPairs(t)
	boundary := make(map[int]*Boundary)
	for i := range ref.Sink.Boundaries {
		b := &ref.Sink.Boundaries[i]
		boundary[b.Records] = b
	}

	// Collect every crash point inside any window, deduplicated; the point
	// just before the resize rides along as the baseline interleaving.
	points := map[int]bool{}
	for _, p := range pairs {
		for n := p.resize - 1; n <= p.death; n++ {
			if n >= 1 {
				points[n] = true
			}
		}
	}
	ordered := make([]int, 0, len(points))
	for n := range points {
		ordered = append(ordered, n)
	}
	sortInts(ordered)
	cap := 400
	if testing.Short() {
		cap = 60
	}
	ordered = stride(ordered, cap)

	var atBoundary, midOp int
	for _, n := range ordered {
		o, rep, err := ref.Recover(n)
		if err != nil {
			t.Fatalf("crash after %d records: recover: %v", n, err)
		}
		if rep.LastSeq != uint64(n) {
			t.Fatalf("crash after %d records: recovered LastSeq %d", n, rep.LastSeq)
		}
		o.AuditSweep()
		if v := o.Auditor().Violations(); len(v) != 0 {
			t.Fatalf("crash after %d records: %d violations, first: %+v", n, len(v), v[0])
		}
		if b, ok := boundary[n]; ok {
			atBoundary++
			if got := o.StateDigest(); !bytes.Equal(got, b.Digest) {
				t.Fatalf("crash at boundary (%d records): digest diverged\nreference: %s\nrecovered: %s",
					n, b.Digest, got)
			}
		} else {
			midOp++
		}
	}
	if midOp == 0 {
		t.Fatal("no mid-operation crash point inside any resize→teardown window")
	}
	t.Logf("verified %d crash points in %d windows (%d at boundaries, %d mid-operation)",
		len(ordered), len(pairs), atBoundary, midOp)
}

// TestResizeReplayAgainstDeletedSlice exercises the degraded path directly:
// a hand-truncated image whose checkpoint post-dates a slice's teardown but
// whose tail still carries an old resize of that slice. Replay must skip
// the resize — no error — and the recovered state must be bit-identical to
// recovering the checkpoint alone: the teardown's released ledger capacity
// must not come back.
func TestResizeReplayAgainstDeletedSlice(t *testing.T) {
	ref, pairs := referenceWithPairs(t)

	// A snapshot taken after a pair's teardown: its restored registry no
	// longer holds the slice live.
	var (
		pair resizeTeardownPair
		snap *Snap
	)
	for _, p := range pairs {
		for i := range ref.Sink.Snapshots {
			sn := &ref.Sink.Snapshots[i]
			if sn.Records >= p.death {
				pair, snap = p, sn
				break
			}
		}
		if snap != nil {
			break
		}
	}
	if snap == nil {
		t.Skip("no checkpoint after any resize→teardown window (raise scenario duration)")
	}

	resizeRec := ref.Sink.Records[pair.resize-1]
	if resizeRec.Type != "resize" {
		t.Fatalf("record %d is %q, want resize", pair.resize, resizeRec.Type)
	}

	// Clean recovery: the checkpoint with an empty tail.
	clean, _, err := recoverImage(ref, &wal.Recovered{
		SnapshotSeq: snap.Seq, Snapshot: snap.Blob, LastSeq: snap.Seq,
	})
	if err != nil {
		t.Fatalf("clean recovery: %v", err)
	}

	// Torn recovery: same checkpoint plus the stale resize in the tail.
	torn, rep, err := recoverImage(ref, &wal.Recovered{
		SnapshotSeq: snap.Seq, Snapshot: snap.Blob, LastSeq: snap.Seq,
		Records: []wal.Record{resizeRec},
	})
	if err != nil {
		t.Fatalf("stale resize of %s (record %d) against checkpoint at %d aborted recovery: %v",
			pair.id, pair.resize, snap.Records, err)
	}
	if rep.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (the skipped resize)", rep.Replayed)
	}

	torn.AuditSweep()
	if v := torn.Auditor().Violations(); len(v) != 0 {
		t.Fatalf("torn recovery fails audit: %d violations, first: %+v", len(v), v[0])
	}
	// Bit-identical to the checkpoint alone — the digest covers the ledger,
	// so any resurrected capacity from the skipped resize would show up
	// here.
	if c, g := clean.StateDigest(), torn.StateDigest(); !bytes.Equal(c, g) {
		t.Fatalf("stale resize mutated recovered state:\ncheckpoint only: %s\nwith stale resize: %s", c, g)
	}
}

// TestTeardownWithoutPriorResizeStillExact guards the boundary digests of
// the plain teardown path too: crashing exactly at each teardown-bearing
// commit boundary must reproduce the reference digest (capacity released
// exactly once, bit-for-bit).
func TestTeardownWithoutPriorResizeStillExact(t *testing.T) {
	ref, _ := referenceWithPairs(t)
	checked := 0
	for _, b := range ref.Sink.Boundaries {
		if b.Records == 0 || b.Digest == nil {
			continue
		}
		if ref.Sink.Records[b.Records-1].Type != "teardown" {
			continue
		}
		o, _, err := ref.Recover(b.Records)
		if err != nil {
			t.Fatalf("recover at teardown boundary %d: %v", b.Records, err)
		}
		if got := o.StateDigest(); !bytes.Equal(got, b.Digest) {
			t.Fatalf("teardown boundary %d: digest diverged", b.Records)
		}
		checked++
		if checked >= 20 && testing.Short() {
			break
		}
	}
	if checked == 0 {
		t.Skip("no commit boundary lands exactly on a teardown record")
	}
	t.Logf("verified %d teardown-tail boundaries", checked)
}
