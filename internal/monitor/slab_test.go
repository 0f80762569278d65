package monitor

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// refRing is the test's oracle: a ring that appends rows to Go slices and
// keeps the last capacity of them. It shares no code with the slab.
type refRing struct {
	capacity int
	cols     int
	at       []int64
	rows     [][]float64
}

func (r *refRing) add(atNanos int64, row []float64) {
	r.at = append(r.at, atNanos)
	r.rows = append(r.rows, row)
	if len(r.at) > r.capacity {
		r.at, r.rows = r.at[1:], r.rows[1:]
	}
}

func (r *refRing) window(col, n int) []Sample {
	if n <= 0 || n > len(r.at) {
		n = len(r.at)
	}
	out := make([]Sample, n)
	for i := range out {
		j := len(r.at) - n + i
		out[i] = Sample{At: time.Unix(0, r.at[j]).UTC(), Value: r.rows[j][col]}
	}
	return out
}

func values(w []Sample) []float64 {
	out := make([]float64, len(w))
	for i := range w {
		out[i] = w[i].Value
	}
	return out
}

// headOf reads the position a ring writes next.
func headOf(r *Rows) int {
	sl, slot := r.rlock()
	defer sl.mu.RUnlock()
	return sl.head[slot]
}

// TestSlabMatchesReferenceRings runs a seeded random program over many rings
// of one store — rings created at random times (so heads start misaligned),
// AddEach over random subsets mixing two shapes, stray single-column
// appends, whole-row appends, Drop and re-creation of names, Rows replacing
// registered names — far past the wrap at 512, and after every step compares
// every read of every ring, registered or orphaned, with a reference ring.
func TestSlabMatchesReferenceRings(t *testing.T) {
	type ring struct {
		rows  *Rows
		names []string
		ref   *refRing
	}
	shapes := []shape{{512, 3}, {5, 2}}
	st := NewStore(64)
	rng := rand.New(rand.NewSource(7))
	var live, orphans []*ring
	byName := map[string]*ring{}
	made := 0
	create := func(sh shape, names []string) *ring {
		if names == nil {
			for c := 0; c < sh.cols; c++ {
				names = append(names, fmt.Sprintf("r%d/c%d", made, c))
			}
			made++
		}
		for _, name := range names {
			if old, ok := byName[name]; ok { // Rows replaces it: an orphan now
				orphans = append(orphans, old)
				live = slices.DeleteFunc(live, func(r *ring) bool { return r == old })
				for _, n := range old.names {
					delete(byName, n)
				}
			}
		}
		r := &ring{rows: st.Rows(sh.capacity, names...), names: names, ref: &refRing{capacity: sh.capacity, cols: sh.cols}}
		live = append(live, r)
		for _, name := range names {
			byName[name] = r
		}
		return r
	}
	nanos := int64(0)
	row := func(cols int) []float64 {
		v := make([]float64, cols)
		for c := range v {
			v[c] = float64(rng.Intn(1000)) / 8
		}
		return v
	}
	check := func(step int, r *ring) {
		t.Helper()
		for c := range r.ref.cols {
			s := r.rows.cols[c]
			want := r.ref.window(c, 0)
			if s.Len() != len(want) || s.Capacity() != r.ref.capacity {
				t.Fatalf("step %d, %s: len %d cap %d, want %d and %d", step, s.Name(), s.Len(), s.Capacity(), len(want), r.ref.capacity)
			}
			last, ok := s.Last()
			if ok != (len(want) > 0) || (ok && last != want[len(want)-1]) {
				t.Fatalf("step %d, %s: Last %v %v", step, s.Name(), last, ok)
			}
			for _, w := range []int{0, 1, 3} {
				ww := r.ref.window(c, w)
				vals := values(ww)
				if got := s.Window(w); !slices.Equal(got, ww) {
					t.Fatalf("step %d, %s: Window(%d)\n got %v\nwant %v", step, s.Name(), w, got, ww)
				}
				if got := s.Values(w); !slices.Equal(got, vals) {
					t.Fatalf("step %d, %s: Values(%d) %v, want %v", step, s.Name(), w, got, vals)
				}
			}
			// WindowStats is Compute over Values; a short window keeps the
			// sort cheap.
			if got, want := s.WindowStats(3), Compute(values(r.ref.window(c, 3))); got != want {
				t.Fatalf("step %d, %s: WindowStats(3) %+v, want %+v", step, s.Name(), got, want)
			}
			if len(want) > 0 {
				since := want[len(want)/2].At
				if got := s.Since(since); !slices.Equal(got, want[len(want)/2:]) {
					t.Fatalf("step %d, %s: Since differs", step, s.Name())
				}
			}
		}
	}

	const steps, maxLive, maxOrphans = 900, 10, 6
	for step := 0; step < steps; step++ {
		nanos += int64(time.Second)
		switch k := rng.Intn(100); {
		case k < 4 && len(live) < maxLive || len(live) < 4: // a ring joins at a random moment
			create(shapes[rng.Intn(len(shapes))], nil)
		case k < 6: // an epoch over every 512-ring, then one joins mid-run
			var rows []*Rows
			var cols [3][]float64
			for _, r := range live {
				if r.ref.capacity == 512 {
					v := row(3)
					rows = append(rows, r.rows)
					for c := range cols {
						cols[c] = append(cols[c], v[c])
					}
					r.ref.add(nanos, v)
				}
			}
			AddEach(nanos, rows, cols[:]...)
			// The newcomer starts where the slab's latest append left its
			// ring, so rings written once per epoch stay in lockstep.
			joined := create(shapes[0], nil)
			if n := len(rows); n > 0 {
				if h, hj := headOf(rows[n-1]), headOf(joined.rows); h != hj {
					t.Fatalf("step %d: ring joined at head %d, its slab-mate last written is at %d", step, hj, h)
				}
			}
		case k < 8 && len(live) > 0: // drop a ring's names, or one of them
			r := live[rng.Intn(len(live))]
			names := r.names
			if rng.Intn(2) == 0 {
				names = names[rng.Intn(len(names)):][:1]
			}
			st.Drop(names...)
			live = slices.DeleteFunc(live, func(x *ring) bool { return x == r })
			orphans = append(orphans, r)
			for _, n := range r.names {
				delete(byName, n)
			}
			// Columns left registered still read the ring, now private.
		case k < 10 && len(orphans) > 0 && len(live) < maxLive: // a dropped name asked for again
			o := orphans[rng.Intn(len(orphans))]
			if _, ok := byName[o.names[0]]; !ok {
				create(shape{o.ref.capacity, o.ref.cols}, o.names)
			}
		case k < 12 && len(live) > 0: // Rows replaces a registered ring's names
			r := live[rng.Intn(len(live))]
			create(shape{r.ref.capacity, r.ref.cols}, r.names)
		case k < 20: // a stray single-column append, registered or orphaned
			all := append(append([]*ring(nil), live...), orphans...)
			r := all[rng.Intn(len(all))]
			c := rng.Intn(len(r.names))
			v := make([]float64, len(r.names))
			v[c] = float64(rng.Intn(1000))
			r.rows.cols[c].AddNanos(nanos, v[c])
			r.ref.add(nanos, v)
		case k < 25: // a whole row through the handle
			all := append(append([]*ring(nil), live...), orphans...)
			r := all[rng.Intn(len(all))]
			v := row(len(r.names))
			r.rows.Add(nanos, v...)
			r.ref.add(nanos, v)
		default: // AddEach over a random subset, in random order, both shapes
			all := append(append([]*ring(nil), live...), orphans...)
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			all = slices.DeleteFunc(all, func(*ring) bool { return rng.Intn(5) == 0 })
			rows := make([]*Rows, len(all))
			cols := make([][]float64, 3)
			for c := range cols {
				cols[c] = make([]float64, len(all))
			}
			for i, r := range all {
				rows[i] = r.rows
				v := row(3)
				for c := range cols {
					cols[c][i] = v[c]
				}
				r.ref.add(nanos, v[:len(r.names)])
			}
			AddEach(nanos, rows, cols...)
		}
		if n := len(orphans); n > maxOrphans { // stop following the oldest
			orphans = orphans[n-maxOrphans:]
		}
		for _, r := range live {
			check(step, r)
		}
		for _, r := range orphans {
			check(step, r)
		}
		// The registry answers exactly the live rings' names, and its
		// snapshot their last values.
		snap := st.Snapshot()
		for name, r := range byName {
			s, ok := st.Lookup(name)
			if !ok || s.rows != r.rows {
				t.Fatalf("step %d: %s does not read its ring", step, name)
			}
			c := slices.Index(r.names, name)
			if n := len(r.ref.at); n > 0 && snap[name] != r.ref.rows[n-1][c] {
				t.Fatalf("step %d: snapshot %s = %v, want %v", step, name, snap[name], r.ref.rows[n-1][c])
			}
		}
	}
	wrapped := false
	for _, r := range append(live, orphans...) {
		wrapped = wrapped || len(r.ref.at) == 512
	}
	if !wrapped {
		t.Fatal("no 512-ring filled; the program never reached the wrap")
	}
}

// TestAddEachConcurrent hammers epoch-style batch appends against column
// reads, store snapshots, Drop and re-creation of the batch's own names, and
// Rows/Drop churn in the same slab. Every row a reader sees must be whole
// (TestRowsConcurrent's torn-row check), and every handle the writer keeps
// must stay writable through the moves; the race detector owns the rest.
func TestAddEachConcurrent(t *testing.T) {
	const rings, capacity = 40, 32
	st := NewStore(64)
	names := func(i int) []string {
		return []string{fmt.Sprintf("e%d/d", i), fmt.Sprintf("e%d/s", i), fmt.Sprintf("e%d/a", i)}
	}
	rows := make([]*Rows, rings)
	for i := range rows {
		rows[i] = st.Rows(capacity, names(i)...)
	}
	torn := func(w []Sample) bool {
		for _, smp := range w {
			if smp.Value != float64(smp.At.UnixNano())+0.25 {
				t.Errorf("torn row: served %v at %d", smp.Value, smp.At.UnixNano())
				return true
			}
		}
		return false
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the epoch
		defer wg.Done()
		d, s, a := make([]float64, rings), make([]float64, rings), make([]float64, rings)
		for e := 0; e < 400; e++ {
			for i := range d {
				d[i], s[i], a[i] = float64(e), float64(e)+0.25, float64(e)+0.5
			}
			AddEach(int64(e), rows, d, s, a)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if torn(st.Series(fmt.Sprintf("e%d/s", (i*7+r)%rings)).Window(0)) {
					return
				}
				_ = st.Snapshot()
				if r == 0 { // drop a batch ring's names and ask for them again
					n := names(i % rings)
					st.Drop(n...)
					st.Rows(capacity, n...).Add(1, 1, 1.25, 1.5)
				} else { // churn a ring through the same slab
					churn := st.Rows(capacity, "x", "y", "z")
					churn.Add(1, 1, 1.25, 1.5)
					st.Drop(churn.Names()...)
				}
			}
		}(r)
	}
	wg.Wait()
	for i, r := range rows {
		if n := r.cols[0].Len(); n != capacity {
			t.Fatalf("ring %d holds %d rows after 400 batches, want full %d", i, n, capacity)
		}
		if torn(r.cols[1].Window(0)) {
			return
		}
		if last, _ := r.cols[2].Last(); last.Value != 399.5 {
			t.Fatalf("ring %d last allocated %v, want the final batch's 399.5", i, last.Value)
		}
	}
}

// TestPrivateRingHoldsExactlyCapacity pins the sizing of both placements. A
// ring made on its own, or moved out of the store's slab by Drop, owns a slab
// of exactly its capacity — no chunk padding — and a shared slab grows by
// whole chunks of 16 rings at 32 bytes per three-column row.
func TestPrivateRingHoldsExactlyCapacity(t *testing.T) {
	exact := func(what string, s *Series, capacity, cols int) {
		t.Helper()
		sl := s.rows.sl.Load()
		if len(sl.at) != 1 || len(sl.at[0]) != capacity || len(sl.val[0]) != capacity*cols || len(sl.head) != 1 {
			t.Fatalf("%s: private slab of %d chunks, %d timestamps, %d values, %d slots; want 1, %d, %d, 1",
				what, len(sl.at), len(sl.at[0]), len(sl.val[0]), len(sl.head), capacity, capacity*cols)
		}
	}
	st := NewStore(100)
	exact("NewSeries", NewSeries("a", 37), 37, 1)
	exact("Store.Series", st.Series("b"), 100, 1)

	r := st.Rows(512, "d", "s", "a")
	sl := r.sl.Load()
	if got, want := len(sl.at[0]), 512<<chunkShift; got != want {
		t.Fatalf("shared chunk holds %d rows, want %d", got, want)
	}
	if bytes := (len(sl.at[0]) + len(sl.val[0])) * 8 / len(sl.at[0]); bytes != 32 {
		t.Fatalf("shared slab stores %d bytes per row, want 32", bytes)
	}
	st.Drop("d")
	exact("dropped ring", r.cols[1], 512, 3)
}
