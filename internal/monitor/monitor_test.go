package monitor

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2018, 8, 20, 0, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func TestSeriesAddAndLast(t *testing.T) {
	s := NewSeries("x", 4)
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has Last")
	}
	s.Add(at(1), 10)
	s.Add(at(2), 20)
	last, ok := s.Last()
	if !ok || last.Value != 20 || !last.At.Equal(at(2)) {
		t.Fatalf("last = %+v", last)
	}
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
}

func TestSeriesEvictsOldest(t *testing.T) {
	s := NewSeries("x", 3)
	for i := 1; i <= 5; i++ {
		s.Add(at(i), float64(i))
	}
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	vals := s.Values(0)
	want := []float64{3, 4, 5}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("ring values %v, want %v", vals, want)
		}
	}
}

func TestWindowChronologicalAndBounded(t *testing.T) {
	s := NewSeries("x", 10)
	for i := 0; i < 7; i++ {
		s.Add(at(i), float64(i))
	}
	w := s.Window(3)
	if len(w) != 3 || w[0].Value != 4 || w[2].Value != 6 {
		t.Fatalf("window = %+v", w)
	}
	if got := s.Window(100); len(got) != 7 {
		t.Fatalf("oversized window returned %d", len(got))
	}
}

func TestSince(t *testing.T) {
	s := NewSeries("x", 10)
	for i := 0; i < 10; i++ {
		s.Add(at(i), float64(i))
	}
	got := s.Since(at(7))
	if len(got) != 3 || got[0].Value != 7 {
		t.Fatalf("since = %+v", got)
	}
	if len(s.Since(at(100))) != 0 {
		t.Fatal("future Since returned samples")
	}
}

func TestComputeStats(t *testing.T) {
	st := Compute([]float64{1, 2, 3, 4, 5})
	if st.N != 5 || st.Mean != 3 || st.Min != 1 || st.Max != 5 {
		t.Fatalf("stats %+v", st)
	}
	if math.Abs(st.StdDev-math.Sqrt(2.5)) > 1e-9 {
		t.Fatalf("stddev %v", st.StdDev)
	}
	if st.P50 != 3 {
		t.Fatalf("p50 %v", st.P50)
	}
}

func TestComputeEmpty(t *testing.T) {
	st := Compute(nil)
	if st.N != 0 || st.Mean != 0 {
		t.Fatalf("empty stats %+v", st)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("P(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestStoreAutoCreatesAndSnapshots(t *testing.T) {
	st := NewStore(16)
	st.Record("a", at(1), 1)
	st.Record("b", at(1), 2)
	st.Record("a", at(2), 3)
	snap := st.Snapshot()
	if snap["a"] != 3 || snap["b"] != 2 {
		t.Fatalf("snapshot %v", snap)
	}
	names := st.Names()
	if len(names) != 2 || !sort.StringsAreSorted(names) {
		t.Fatalf("names %v", names)
	}
}

func TestStoreSeriesIdentity(t *testing.T) {
	st := NewStore(8)
	if st.Series("x") != st.Series("x") {
		t.Fatal("Series returned different instances")
	}
}

func TestStoreLookupNeverRegisters(t *testing.T) {
	st := NewStore(8)
	if s, ok := st.Lookup("x"); ok || s != nil {
		t.Fatalf("Lookup of an unknown name returned %v, %v", s, ok)
	}
	if names := st.Names(); len(names) != 0 {
		t.Fatalf("Lookup registered %v", names)
	}
	want := st.Series("x")
	if got, ok := st.Lookup("x"); !ok || got != want {
		t.Fatal("Lookup missed a registered series")
	}
}

func TestMetricNameHelpers(t *testing.T) {
	if SliceMetric("s1", "demand") != "slice/s1/demand" {
		t.Fatal("SliceMetric format")
	}
	if DomainMetric("ran", "util") != "domain/ran/util" {
		t.Fatal("DomainMetric format")
	}
}

func TestConcurrentAccess(t *testing.T) {
	st := NewStore(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Record("shared", at(i), float64(g*1000+i))
				st.Series("shared").WindowStats(10)
				st.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if st.Series("shared").Len() != 64 {
		t.Fatalf("len %d after concurrent writes", st.Series("shared").Len())
	}
}

// Property: ring length never exceeds capacity and Window(0) is always
// chronological.
func TestPropertyRingInvariant(t *testing.T) {
	f := func(vals []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		s := NewSeries("p", capacity)
		for i, v := range vals {
			s.Add(at(i), float64(v))
		}
		if s.Len() > capacity {
			return false
		}
		w := s.Window(0)
		for i := 1; i < len(w); i++ {
			if w[i].At.Before(w[i-1].At) {
				return false
			}
		}
		// Window must hold exactly the most recent min(len(vals),capacity).
		want := len(vals)
		if want > capacity {
			want = capacity
		}
		if len(w) != want {
			return false
		}
		for i := range w {
			if w[i].Value != float64(vals[len(vals)-want+i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		fs := make([]float64, len(vals))
		for i, v := range vals {
			fs[i] = float64(v)
		}
		sort.Float64s(fs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := Percentile(fs, p)
			if q < prev || q < fs[0]-1e-9 || q > fs[len(fs)-1]+1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
