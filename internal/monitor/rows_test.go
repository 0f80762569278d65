package monitor

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestRowsColumnsEqualIndependentSeries is the equivalence the per-slice ring
// rests on: the three column views of one Rows, fed rows, read back exactly
// what three independent Series fed the same samples read back — for every
// read, at every fill level across the wrap-around at 512.
func TestRowsColumnsEqualIndependentSeries(t *testing.T) {
	const capacity = 512
	names := []string{"slice/s-1/demand_mbps", "slice/s-1/served_mbps", "slice/s-1/allocated_mbps"}
	st := NewStore(64)
	rows := st.Rows(capacity, names...)
	ref := make([]*Series, len(names))
	for i, name := range names {
		ref[i] = NewSeries(name, capacity)
	}
	rng := rand.New(rand.NewSource(1))
	check := func(n int) {
		t.Helper()
		for i, name := range names {
			got, want := st.Series(name), ref[i]
			gl, gok := got.Last()
			wl, wok := want.Last()
			if got.Name() != want.Name() || got.Len() != want.Len() || got.Capacity() != want.Capacity() || gl != wl || gok != wok {
				t.Fatalf("after %d rows, %s: len %d/%d cap %d/%d last %v/%v", n, name, got.Len(), want.Len(), got.Capacity(), want.Capacity(), gl, wl)
			}
			for _, w := range []int{0, 1, 7, capacity - 1, capacity, capacity + 5} {
				if !reflect.DeepEqual(got.Window(w), want.Window(w)) || !reflect.DeepEqual(got.Values(w), want.Values(w)) {
					t.Fatalf("after %d rows, %s: Window/Values(%d) differ", n, name, w)
				}
				if gs, ws := got.WindowStats(w), want.WindowStats(w); gs != ws {
					t.Fatalf("after %d rows, %s: WindowStats(%d) %+v vs %+v", n, name, w, gs, ws)
				}
			}
			for _, since := range []int{0, n / 2, n - 1, n + 3} {
				if !reflect.DeepEqual(got.Since(at(since)), want.Since(at(since))) {
					t.Fatalf("after %d rows, %s: Since(%d) differs", n, name, since)
				}
			}
		}
	}
	check(0)
	for n := 1; n <= 2*capacity+3; n++ {
		vals := []float64{rng.Float64() * 40, rng.Float64() * 40, math.Ceil(rng.Float64() * 40)}
		nanos := at(n - 1).UnixNano()
		rows.Add(nanos, vals...)
		for i, s := range ref {
			s.AddNanos(nanos, vals[i])
		}
		if n < 4 || n%97 == 0 || (n >= capacity-2 && n <= capacity+2) || n > 2*capacity {
			check(n)
		}
	}

	// Drop takes all three names out of the store; the ring stays usable for
	// whoever still holds it, and a name asked for again starts empty.
	old := st.Series(names[0])
	st.Drop(rows.Names()...)
	if got := st.Names(); len(got) != 0 {
		t.Fatalf("dropped ring left %v", got)
	}
	rows.Add(1, 1, 2, 3)
	if fresh := st.Series(names[0]); fresh == old || fresh.Len() != 0 || old.Len() != capacity {
		t.Fatal("re-created series reuses the dropped ring")
	}
}

// TestSeriesAddOnSharedRing pins what a single-metric append does to a ring
// it shares: it is a row, zero in the sibling columns. (Nothing in the
// repository does this — the ring's owner writes whole rows — but
// Store.Record on a per-slice name must stay well-defined.)
func TestSeriesAddOnSharedRing(t *testing.T) {
	st := NewStore(8)
	rows := st.Rows(4, "a", "b", "c")
	rows.Add(at(0).UnixNano(), 1, 2, 3)
	st.Record("b", at(1), 9)
	for i, want := range [][]float64{{1, 0}, {2, 9}, {3, 0}} {
		if got := st.Series([]string{"a", "b", "c"}[i]).Values(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("column %d reads %v, want %v", i, got, want)
		}
	}
	rows.Add(at(2).UnixNano(), 5) // a short row reads zero past what it gave
	if got := st.Series("c").Values(1); got[0] != 0 {
		t.Fatalf("short row left %v in the last column", got)
	}
}

// TestRowsConcurrent hammers row appends against column reads, store
// snapshots and drops; the race detector owns the verdict.
func TestRowsConcurrent(t *testing.T) {
	st := NewStore(64)
	rows := st.Rows(32, "d", "s", "a")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				rows.Add(int64(i), float64(i), float64(i)+0.25, float64(i)+0.5)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				for _, smp := range st.Series("s").Window(0) {
					if smp.Value != float64(smp.At.UnixNano())+0.25 {
						t.Errorf("torn row: served %v at %d", smp.Value, smp.At.UnixNano())
						return
					}
				}
				_ = st.Snapshot()
				churn := st.Rows(4, "x", "y")
				churn.Add(1, 1, 2)
				st.Drop(churn.Names()...)
			}
		}()
	}
	wg.Wait()
	if n := st.Series("a").Len(); n != 32 {
		t.Fatalf("ring length %d after concurrent appends, want full 32", n)
	}
}
