package monitor

import (
	"sync"
	"testing"
)

// The monitor-ring edge cases the chaos/invariant PR pins down: exact-
// capacity wraparound (the per-slice rings are bounded at 512 samples and
// the epoch engine appends to them through cached handles every epoch),
// empty-series reads, sized-handle appends that overflow a ring, and Drop.
// (The `at` time helper is shared with monitor_test.go.)

// TestRingWraparoundAtExactCapacity fills a 512-ring to exactly its
// capacity, then one past it, checking both boundaries sample by sample.
func TestRingWraparoundAtExactCapacity(t *testing.T) {
	const cap = 512
	s := NewSeries("x", cap)
	for i := 0; i < cap; i++ {
		s.Add(at(i), float64(i))
	}
	if s.Len() != cap {
		t.Fatalf("Len %d at exact capacity, want %d", s.Len(), cap)
	}
	w := s.Window(0)
	if len(w) != cap || w[0].Value != 0 || w[cap-1].Value != cap-1 {
		t.Fatalf("window [%v..%v] of %d at exact capacity", w[0].Value, w[len(w)-1].Value, len(w))
	}
	// The 513th sample evicts exactly the oldest.
	s.Add(at(cap), float64(cap))
	if s.Len() != cap {
		t.Fatalf("Len %d after wraparound, want %d", s.Len(), cap)
	}
	w = s.Window(0)
	if w[0].Value != 1 || w[cap-1].Value != cap {
		t.Fatalf("window [%v..%v] after wraparound, want [1..%d]", w[0].Value, w[cap-1].Value, cap)
	}
	for i := 1; i < len(w); i++ {
		if w[i].Value != w[i-1].Value+1 {
			t.Fatalf("window not contiguous at %d: %v -> %v", i, w[i-1].Value, w[i].Value)
		}
	}
	if last, ok := s.Last(); !ok || last.Value != cap || !last.At.Equal(at(cap)) {
		t.Fatalf("Last %+v ok=%v after wraparound", last, ok)
	}
}

// TestEmptyAndDegenerateSeries: every read path on a series with no samples
// (and on minimum-capacity rings) is well-defined.
func TestEmptyAndDegenerateSeries(t *testing.T) {
	s := NewSeries("empty", 512)
	if s.Len() != 0 {
		t.Fatal("fresh series not empty")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty series reported a sample")
	}
	if w := s.Window(0); len(w) != 0 {
		t.Fatalf("Window(0) on empty series: %v", w)
	}
	if w := s.Window(10); len(w) != 0 {
		t.Fatalf("Window(10) on empty series: %v", w)
	}
	if v := s.Values(5); len(v) != 0 {
		t.Fatalf("Values on empty series: %v", v)
	}
	if since := s.Since(at(0)); len(since) != 0 {
		t.Fatalf("Since on empty series: %v", since)
	}
	st := s.WindowStats(0)
	if st.N != 0 || st.Mean != 0 || st.P99 != 0 {
		t.Fatalf("stats on empty series: %+v", st)
	}

	// Requested capacity <= 0 clamps to 1, and the 1-ring keeps the newest.
	tiny := NewSeries("tiny", 0)
	if tiny.Capacity() != 1 {
		t.Fatalf("capacity %d, want clamp to 1", tiny.Capacity())
	}
	tiny.Add(at(1), 1)
	tiny.Add(at(2), 2)
	if last, _ := tiny.Last(); last.Value != 2 || tiny.Len() != 1 {
		t.Fatalf("1-ring kept %+v (len %d)", last, tiny.Len())
	}
}

// TestSizedSeriesAddNanosOverflow: appends through a Store.Series handle — the
// control epoch's telemetry path — land like the equivalent Record sequence:
// more samples than the ring holds retain the tail, and a later lookup
// returns the same ring.
func TestSizedSeriesAddNanosOverflow(t *testing.T) {
	st := NewStore(4)
	s := st.Series("over")
	for i := 0; i < 8; i++ { // twice the ring
		s.AddNanos(at(1).UnixNano(), float64(i))
	}
	vals := s.Values(0)
	want := []float64{4, 5, 6, 7}
	if len(vals) != len(want) {
		t.Fatalf("values %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values %v, want %v", vals, want)
		}
	}
	if last, _ := s.Last(); !last.At.Equal(at(1)) {
		t.Fatalf("AddNanos stamped %v, want %v", last.At, at(1))
	}

	// The handle and the registry are the same ring.
	if again := st.Series("over"); again != s {
		t.Fatal("existing ring replaced")
	}
}

// TestStoreDrop: dropped names leave the registry (and only those), an
// outstanding handle stays writable, and re-creating a dropped name yields
// a fresh ring.
func TestStoreDrop(t *testing.T) {
	st := NewStore(8)
	kept := st.Series("kept")
	gone := st.Series("gone")
	gone.Add(at(1), 1)
	kept.Add(at(1), 2)
	st.Drop("gone", "never-existed")
	if names := st.Names(); len(names) != 1 || names[0] != "kept" {
		t.Fatalf("names after drop: %v", names)
	}
	if _, ok := st.Snapshot()["gone"]; ok {
		t.Fatal("dropped series still in the snapshot")
	}
	gone.Add(at(2), 3) // orphaned handle: harmless
	if fresh := st.Series("gone"); fresh == gone || fresh.Len() != 0 {
		t.Fatalf("re-created series reuses the dropped ring (len %d)", fresh.Len())
	}
}

// TestAddNanosConcurrentWithReadsAndDrop hammers handle appends against
// window reads, snapshots and registry drops; the race detector owns the
// verdict, the final length check the bookkeeping.
func TestAddNanosConcurrentWithReadsAndDrop(t *testing.T) {
	st := NewStore(32)
	shared := st.Series("shared")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				nanos := at(i).UnixNano()
				shared.AddNanos(nanos, float64(i))
				shared.AddNanos(nanos, float64(i)+0.5)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = shared.Window(0)
				_ = st.Snapshot()
				st.Series("churn").AddNanos(int64(i), 1)
				st.Drop("churn")
			}
		}()
	}
	wg.Wait()
	// Far more samples than capacity landed, so the ring must be full.
	if shared.Len() != shared.Capacity() {
		t.Fatalf("ring length %d after concurrent appends, want full %d", shared.Len(), shared.Capacity())
	}
	for _, name := range st.Names() {
		if name == "churn" {
			t.Fatal("dropped series survived")
		}
	}
}
