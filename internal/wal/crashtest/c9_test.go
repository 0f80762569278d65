package crashtest

import (
	"bytes"
	"fmt"
	"testing"
)

// c9Reference runs the intent-plane drill C9 (template publishes, a fleet,
// two canary rollouts) at seed 42 with the capturing sink attached.
func c9Reference(t *testing.T, shards int) *Reference {
	t.Helper()
	ref, err := RunReference("c9", 42, shards)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if n := len(ref.Result.Violations); n != 0 {
		t.Fatalf("reference run not invariant-clean: %d violations, first: %+v", n, ref.Result.Violations[0])
	}
	if n := len(ref.Result.Steps); n != 6 {
		t.Fatalf("reference run fired %d of C9's 6 ops", n)
	}
	return ref
}

// TestCrashRecoveryC9 takes C9 through the crash harness at shards 1 and
// 16. Every record prefix must recover and pass a full invariant sweep
// (audit). Commit-boundary digests do not match yet (digest): the intent
// plane publishes its fleet and rollout events on the core bus without
// writing a WAL record, so a crash before the next slice record recovers a
// last_event_seq one short — a sequence number an SSE client has already
// seen is handed out again. At seed 42 that is the boundaries just after
// the t=50m promotion. The digest subtest is the reproducer, skipped until
// intent events carry a record.
func TestCrashRecoveryC9(t *testing.T) {
	shardCounts := []int{1, 16}
	if testing.Short() {
		shardCounts = []int{1}
	}
	t.Run("audit", func(t *testing.T) {
		for _, shards := range shardCounts {
			ref := c9Reference(t, shards)
			points, _ := ref.CrashPoints(crashPointCaps())
			for _, n := range points {
				o, rep, err := ref.Recover(n)
				if err != nil {
					t.Fatalf("shards=%d: crash after %d records: recover: %v", shards, n, err)
				}
				if rep.LastSeq != uint64(n) {
					t.Fatalf("shards=%d: crash after %d records: recovered LastSeq %d", shards, n, rep.LastSeq)
				}
				o.AuditSweep()
				if v := o.Auditor().Violations(); len(v) != 0 {
					t.Fatalf("shards=%d: crash after %d records: %d violations, first: %+v", shards, n, len(v), v[0])
				}
			}
			t.Logf("shards=%d: %d records, %d boundaries; %d crash points recover audit-clean",
				shards, len(ref.Sink.Records), len(ref.Sink.Boundaries), len(points))
		}
	})
	t.Run("digest", func(t *testing.T) {
		t.Skip("ROADMAP item 3: intent events carry no record")
		for _, shards := range shardCounts {
			ref := c9Reference(t, shards)
			var diverged []string
			for _, b := range ref.Sink.Boundaries {
				o, _, err := ref.Recover(b.Records)
				if err != nil {
					t.Fatalf("shards=%d: crash at boundary %d: recover: %v", shards, b.Records, err)
				}
				if !bytes.Equal(o.StateDigest(), b.Digest) {
					diverged = append(diverged, fmt.Sprint(b.Records))
				}
			}
			if len(diverged) != 0 {
				t.Errorf("shards=%d: recovered digest diverged at %d of %d commit boundaries (records %v)",
					shards, len(diverged), len(ref.Sink.Boundaries), diverged)
			}
		}
	})
}
