// Package monitor implements the real-time monitoring pillar of the
// orchestrator (Fig. 1: "Collect information about network utilization" /
// "Real time monitoring"). Domain controllers push samples into named time
// series; the orchestrator and dashboard read windows, aggregates and
// percentiles back out.
//
// Series are fixed-capacity rings: the orchestrator only ever needs a
// bounded history (forecast warm-up plus dashboard window), and rings keep
// the memory of a long-running daemon flat.
//
// The per-slice rings a Store hands out (Store.Rows) share one slab per
// ring shape, laid out position-major: position p of 16 neighbouring rings
// is adjacent memory, and a new ring starts at the head of the slab's latest
// append. The control epoch writes every slice's row in one AddEach call
// under one lock, and the rows land side by side. A series made on its own
// (NewSeries, Store.Series) has a private slab sized exactly to its ring.
//
// Store and Series are safe for concurrent use — domain controllers and
// the sharded orchestrator write from parallel goroutines while the REST
// API and dashboard read. Reads (lookups, windows, stats, snapshots) take
// shared read locks so they never stall the telemetry hot path.
package monitor

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one timestamped measurement.
type Sample struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
}

// Rows is a fixed-capacity ring of rows: one timestamp column and one value
// column per metric, written as one row. Metrics that are always sampled
// together — a slice's demand, served and allocated throughput — share one
// Rows; each column reads back as a Series. Safe for concurrent use.
//
// A ring's cells live in a slab (below), which holds the lock. The rings a
// store hands out share the store's slab for their shape; NewSeries and
// Store.Series make a ring over a private one-ring slab. A shared ring moves
// to a private slab when its store lets go of it (Drop, or Rows replacing its
// name), so an outstanding handle keeps its samples and stays writable; every
// access re-checks the ring's slab after locking it.
type Rows struct {
	sl   atomic.Pointer[slab]
	slot int // rewritten only when the ring moves, under the old slab's lock
	cols []*Series
}

// chunkShift sets how many rings of one shape share a chunk of a store's
// slab: 1<<chunkShift = 16. Position p of those 16 rings is adjacent memory,
// so an epoch that appends one row to every ring writes whole cache lines
// (16 timestamps are two lines, their three-column values six).
const chunkShift = 4

// slab holds the cells of rings of one shape — capacity rows of cols values —
// position-major. Ring slot s keeps position p in chunk s>>shift at cell
// p<<shift + s&(1<<shift-1): its timestamp at at[chunk][cell], its values at
// val[chunk][cell*cols:(cell+1)*cols]. Timestamps are unix nanoseconds and
// values plain floats rather than Sample structs: time.Time carries a
// *Location pointer, and a store with tens of thousands of per-slice rings
// would otherwise hand the garbage collector millions of pointer slots to
// scan on every cycle. Timestamps round-trip exactly (nanosecond precision,
// reported in UTC).
type slab struct {
	mu       sync.RWMutex
	capacity int
	cols     int
	shift    uint // chunkShift when shared, 0 for a private one-ring slab
	at       [][]int64
	val      [][]float64
	head, n  []int // per slot: next write position, valid rows
	free     []int // released slots, reused before the slab grows
	next     int   // head after the latest append, where a new ring starts
}

// newRows claims a slot in sl for a ring with one column per name.
func newRows(sl *slab, names ...string) *Rows {
	r := &Rows{cols: make([]*Series, len(names))}
	for i, name := range names {
		r.cols[i] = &Series{name: name, rows: r, col: i}
	}
	sl.mu.Lock()
	r.slot = sl.claimLocked()
	sl.mu.Unlock()
	r.sl.Store(sl)
	return r
}

// claimLocked returns a free slot, growing the slab by a chunk when none is
// left. The new ring starts empty at the head of the slab's latest append, so
// rings written once per epoch stay in lockstep (only locality depends on
// that). The caller holds sl.mu exclusively.
func (sl *slab) claimLocked() int {
	var slot int
	if k := len(sl.free); k > 0 {
		slot, sl.free = sl.free[k-1], sl.free[:k-1]
	} else {
		slot = len(sl.head)
		if slot>>sl.shift == len(sl.at) {
			cells := sl.capacity << sl.shift
			sl.at = append(sl.at, make([]int64, cells))
			sl.val = append(sl.val, make([]float64, cells*sl.cols))
		}
		sl.head, sl.n = append(sl.head, 0), append(sl.n, 0)
	}
	sl.head[slot], sl.n[slot] = sl.next, 0
	return slot
}

// cell returns the chunk of slot and the index of its position pos there.
func (sl *slab) cell(slot, pos int) (chunk, i int) {
	return slot >> sl.shift, pos<<sl.shift + slot&(1<<sl.shift-1)
}

// pushLocked claims slot's next row, stamped atNanos and zeroed, evicting
// the oldest when full, and returns its values. The caller holds sl.mu
// exclusively.
func (sl *slab) pushLocked(slot int, atNanos int64) []float64 {
	pos := sl.head[slot]
	c, i := sl.cell(slot, pos)
	sl.at[c][i] = atNanos
	row := sl.val[c][i*sl.cols : (i+1)*sl.cols]
	clear(row)
	if pos++; pos == sl.capacity {
		pos = 0
	}
	sl.head[slot], sl.next = pos, pos
	if sl.n[slot] < sl.capacity {
		sl.n[slot]++
	}
	return row
}

// lock write-locks the ring's current slab and returns it with the ring's
// slot there.
func (r *Rows) lock() (*slab, int) {
	for {
		sl := r.sl.Load()
		sl.mu.Lock()
		if r.sl.Load() == sl {
			return sl, r.slot
		}
		sl.mu.Unlock()
	}
}

// rlock is lock for readers.
func (r *Rows) rlock() (*slab, int) {
	for {
		sl := r.sl.Load()
		sl.mu.RLock()
		if r.sl.Load() == sl {
			return sl, r.slot
		}
		sl.mu.RUnlock()
	}
}

// privatize moves a ring out of a shared slab into a private one-ring slab
// of its capacity, samples and head included, and frees its slot. Only the
// ring's store calls it, under its registry lock, so no two moves race.
func (r *Rows) privatize() {
	sl := r.sl.Load()
	if sl.shift == 0 {
		return
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	p := &slab{capacity: sl.capacity, cols: sl.cols}
	p.claimLocked()
	for pos := 0; pos < sl.capacity; pos++ {
		c, i := sl.cell(r.slot, pos)
		p.at[0][pos] = sl.at[c][i]
		copy(p.val[0][pos*sl.cols:(pos+1)*sl.cols], sl.val[c][i*sl.cols:(i+1)*sl.cols])
	}
	p.head[0], p.n[0] = sl.head[r.slot], sl.n[r.slot]
	sl.free = append(sl.free, r.slot)
	r.slot = 0
	r.sl.Store(p)
}

// AddEach appends one row stamped atNanos to every ring in rows: row i goes
// to rows[i], its column c read from cols[c][i] (columns past len(cols) read
// zero). It takes one lock per run of consecutive rings that share a slab —
// the control epoch writes every slice's telemetry row in one call, under
// one lock.
func AddEach(atNanos int64, rows []*Rows, cols ...[]float64) {
	for i := 0; i < len(rows); {
		sl, _ := rows[i].lock()
		for ; i < len(rows) && rows[i].sl.Load() == sl; i++ {
			row := sl.pushLocked(rows[i].slot, atNanos)
			for c := range min(len(row), len(cols)) {
				row[c] = cols[c][i]
			}
		}
		sl.mu.Unlock()
	}
}

// Names returns the column names in column order.
func (r *Rows) Names() []string {
	out := make([]string, len(r.cols))
	for i, s := range r.cols {
		out[i] = s.name
	}
	return out
}

// Series is one named metric: a column of a Rows ring (Store.Rows registers
// every column under its name). A series made by NewSeries or Store.Series
// owns a single-column ring. Safe for concurrent use.
type Series struct {
	name string
	rows *Rows
	col  int
}

// NewSeries returns an empty series with the given capacity (minimum 1).
func NewSeries(name string, capacity int) *Series {
	return newRows(&slab{capacity: max(capacity, 1), cols: 1}, name).cols[0]
}

// Name returns the series name.
//
// Kept: restapi's TestWireIdentity names each series it compares.
func (s *Series) Name() string { return s.name }

// Add appends a sample, evicting the oldest when full. On a column of a
// shared ring it appends a row that reads zero in the sibling columns; the
// ring's owner writes whole rows with Rows.Add or AddEach instead.
func (s *Series) Add(at time.Time, v float64) { s.AddNanos(at.UnixNano(), v) }

// AddNanos is Add for a caller that already holds the timestamp as Unix
// nanoseconds.
func (s *Series) AddNanos(atNanos int64, v float64) {
	sl, slot := s.rows.lock()
	defer sl.mu.Unlock()
	sl.pushLocked(slot, atNanos)[s.col] = v
}

// Len returns the number of stored samples.
//
// Kept: the core and restapi suites count telemetry rows with it.
func (s *Series) Len() int {
	sl, slot := s.rows.rlock()
	defer sl.mu.RUnlock()
	return sl.n[slot]
}

// Last returns the most recent sample, if any.
func (s *Series) Last() (Sample, bool) {
	sl, slot := s.rows.rlock()
	defer sl.mu.RUnlock()
	if sl.n[slot] == 0 {
		return Sample{}, false
	}
	return s.sampleLocked(sl, slot, (sl.head[slot]-1+sl.capacity)%sl.capacity), true
}

// sampleLocked reads the series' sample at position pos of its ring.
func (s *Series) sampleLocked(sl *slab, slot, pos int) Sample {
	c, i := sl.cell(slot, pos)
	return Sample{At: time.Unix(0, sl.at[c][i]).UTC(), Value: sl.val[c][i*sl.cols+s.col]}
}

// windowLocked returns the ring position of the oldest of the n most recent
// samples (n <= 0: all) and the clamped n.
func windowLocked(sl *slab, slot, n int) (start, count int) {
	if n <= 0 || n > sl.n[slot] {
		n = sl.n[slot]
	}
	return (sl.head[slot] - n + sl.capacity) % sl.capacity, n
}

// Window returns up to n most recent samples in chronological order.
// n <= 0 returns everything stored.
func (s *Series) Window(n int) []Sample {
	sl, slot := s.rows.rlock()
	defer sl.mu.RUnlock()
	start, n := windowLocked(sl, slot, n)
	out := make([]Sample, n)
	for i := range out {
		out[i] = s.sampleLocked(sl, slot, (start+i)%sl.capacity)
	}
	return out
}

// Values returns just the values of Window(n).
func (s *Series) Values(n int) []float64 {
	sl, slot := s.rows.rlock()
	defer sl.mu.RUnlock()
	start, n := windowLocked(sl, slot, n)
	out := make([]float64, n)
	for i := range out {
		c, j := sl.cell(slot, (start+i)%sl.capacity)
		out[i] = sl.val[c][j*sl.cols+s.col]
	}
	return out
}

// Stats summarises a window of samples.
type Stats struct {
	N             int     `json:"n"`
	Mean          float64 `json:"mean"`
	Min           float64 `json:"min"`
	Max           float64 `json:"max"`
	StdDev        float64 `json:"stddev"`
	P50, P95, P99 float64
}

// WindowStats computes aggregates over the n most recent samples
// (n <= 0: all).
func (s *Series) WindowStats(n int) Stats {
	vals := s.Values(n)
	return Compute(vals)
}

// Compute returns summary statistics for vals.
func Compute(vals []float64) Stats {
	st := Stats{N: len(vals)}
	if len(vals) == 0 {
		return st
	}
	st.Min, st.Max = math.Inf(1), math.Inf(-1)
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(len(vals))
	ss := 0.0
	for _, v := range vals {
		d := v - st.Mean
		ss += d * d
	}
	if len(vals) > 1 {
		st.StdDev = math.Sqrt(ss / float64(len(vals)-1))
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	st.P50 = Percentile(sorted, 0.50)
	st.P95 = Percentile(sorted, 0.95)
	st.P99 = Percentile(sorted, 0.99)
	return st
}

// Percentile returns the p-quantile (0..1) of an ascending-sorted slice
// using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	rank := p * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Store is a concurrent registry of named series — the monitoring database
// the REST API and dashboard read from. The rings it hands out through Rows
// share one slab per shape (capacity, column count).
type Store struct {
	mu       sync.RWMutex
	series   map[string]*Series
	slabs    map[shape]*slab
	capacity int
}

// shape keys a store's shared slabs.
type shape struct{ capacity, cols int }

// NewStore returns a store whose auto-created series hold capacity samples.
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1024
	}
	return &Store{series: make(map[string]*Series), slabs: make(map[shape]*slab), capacity: capacity}
}

// Series returns the named series, creating it on first use with the store's
// ring capacity.
func (st *Store) Series(name string) *Series {
	if s, ok := st.Lookup(name); ok {
		return s
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.series[name]; ok {
		return s
	}
	s := NewSeries(name, st.capacity)
	st.series[name] = s
	return s
}

// Lookup returns the named series without creating it — the read for names
// that arrive from outside the program, which must not grow the registry.
func (st *Store) Lookup(name string) (*Series, bool) {
	st.mu.RLock()
	s, ok := st.series[name]
	st.mu.RUnlock()
	return s, ok
}

// Rows creates one ring of capacity rows with a column per name, in the
// store's slab for that shape, and registers every column as the series of
// its name (replacing a series already registered under it), so
// Series(name) reads the column back. The caller keeps the returned handle
// and writes whole rows through it (Rows.Add, AddEach). The orchestrator
// holds one per slice, sized well below the store default: with tens of
// thousands of slices, default-sized rings would dominate the daemon's
// memory.
func (st *Store) Rows(capacity int, names ...string) *Rows {
	capacity = max(capacity, 1)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, name := range names {
		if s, ok := st.series[name]; ok {
			s.rows.privatize()
		}
	}
	k := shape{capacity, len(names)}
	sl := st.slabs[k]
	if sl == nil {
		sl = &slab{capacity: capacity, cols: len(names), shift: chunkShift}
		st.slabs[k] = sl
	}
	r := newRows(sl, names...)
	for _, s := range r.cols {
		st.series[s.name] = s
	}
	return r
}

// Drop removes the named series from the registry; unknown names are
// ignored. Handles obtained earlier stay usable, samples included, but are no
// longer reachable through the store (a ring in the store's slab moves to a
// private one first). The orchestrator calls it when a finished slice leaves
// the retained history, so per-slice rings do not accumulate for the life of
// the daemon.
func (st *Store) Drop(names ...string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, name := range names {
		if s, ok := st.series[name]; ok {
			s.rows.privatize()
			delete(st.series, name)
		}
	}
}

// Names returns all series names, sorted.
//
// Kept: the core, restapi and scenario suites walk the store with it.
func (st *Store) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, 0, len(st.series))
	for n := range st.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns the latest value of every series — the payload the
// domain controllers feed to the orchestrator over REST.
func (st *Store) Snapshot() map[string]float64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make(map[string]float64, len(st.series))
	for n, s := range st.series {
		if last, ok := s.Last(); ok {
			out[n] = last.Value
		}
	}
	return out
}

// SliceMetric builds the conventional per-slice series name,
// e.g. SliceMetric("s-3", "demand_mbps") = "slice/s-3/demand_mbps".
func SliceMetric(sliceID, metric string) string {
	return fmt.Sprintf("slice/%s/%s", sliceID, metric)
}

// DomainMetric builds the conventional per-domain series name,
// e.g. DomainMetric("ran", "utilization") = "domain/ran/utilization".
func DomainMetric(domain, metric string) string {
	return fmt.Sprintf("domain/%s/%s", domain, metric)
}
