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
	"time"
)

// Sample is one timestamped measurement.
type Sample struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
}

// Rows is a fixed-capacity ring of rows: one timestamp column and one value
// column per metric, all behind one lock. Metrics that are always sampled
// together — a slice's demand, served and allocated throughput — share one
// Rows and are written as one row; each column reads back as a Series. Safe
// for concurrent use.
//
// Internally the ring stores unix-nanosecond timestamps and float values
// rather than Sample structs: time.Time carries a *Location pointer, and a
// store with tens of thousands of per-slice rings would otherwise hand the
// garbage collector millions of pointer slots to scan on every cycle.
// Timestamps round-trip exactly (nanosecond precision, reported in UTC).
type Rows struct {
	mu   sync.RWMutex
	at   []int64   // UnixNano per row
	val  []float64 // row-major: row i's columns are val[i*cols : (i+1)*cols]
	cols []*Series
	head int // next write position
	n    int // valid rows
}

// newRows returns an empty ring of capacity rows (minimum 1) with one column
// per name.
func newRows(capacity int, names ...string) *Rows {
	if capacity < 1 {
		capacity = 1
	}
	r := &Rows{at: make([]int64, capacity), val: make([]float64, capacity*len(names)), cols: make([]*Series, len(names))}
	for i, name := range names {
		r.cols[i] = &Series{name: name, rows: r, col: i}
	}
	return r
}

// Add appends one row, evicting the oldest when full: vals[i] goes to column
// i, columns past len(vals) read zero.
func (r *Rows) Add(atNanos int64, vals ...float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	copy(r.pushLocked(atNanos), vals)
}

// pushLocked claims the next row, stamped atNanos and zeroed, evicting the
// oldest when full. The caller holds r.mu exclusively.
func (r *Rows) pushLocked(atNanos int64) []float64 {
	r.at[r.head] = atNanos
	row := r.val[r.head*len(r.cols) : (r.head+1)*len(r.cols)]
	clear(row)
	r.head = (r.head + 1) % len(r.at)
	if r.n < len(r.at) {
		r.n++
	}
	return row
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
// every column under its name). A series made by NewSeries, Store.Series or
// Store.SeriesSized owns a single-column ring. Safe for concurrent
// use.
type Series struct {
	name string
	rows *Rows
	col  int
}

// NewSeries returns an empty series with the given capacity (minimum 1).
func NewSeries(name string, capacity int) *Series {
	return newRows(capacity, name).cols[0]
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Add appends a sample, evicting the oldest when full. On a column of a
// shared ring it appends a row that reads zero in the sibling columns; the
// ring's owner writes whole rows with Rows.Add instead.
func (s *Series) Add(at time.Time, v float64) { s.AddNanos(at.UnixNano(), v) }

// AddNanos is Add for a caller that already holds the timestamp as Unix
// nanoseconds.
func (s *Series) AddNanos(atNanos int64, v float64) {
	s.rows.mu.Lock()
	defer s.rows.mu.Unlock()
	s.rows.pushLocked(atNanos)[s.col] = v
}

// Len returns the number of stored samples.
func (s *Series) Len() int {
	s.rows.mu.RLock()
	defer s.rows.mu.RUnlock()
	return s.rows.n
}

// Capacity returns the ring size.
func (s *Series) Capacity() int { return len(s.rows.at) }

// Last returns the most recent sample, if any.
func (s *Series) Last() (Sample, bool) {
	r := s.rows
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.n == 0 {
		return Sample{}, false
	}
	return s.sampleLocked((r.head - 1 + len(r.at)) % len(r.at)), true
}

// sampleLocked reads the series' sample in ring slot j.
func (s *Series) sampleLocked(j int) Sample {
	r := s.rows
	return Sample{At: time.Unix(0, r.at[j]).UTC(), Value: r.val[j*len(r.cols)+s.col]}
}

// Window returns up to n most recent samples in chronological order.
// n <= 0 returns everything stored.
func (s *Series) Window(n int) []Sample {
	r := s.rows
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]Sample, n)
	start := (r.head - n + len(r.at)) % len(r.at)
	for i := range out {
		out[i] = s.sampleLocked((start + i) % len(r.at))
	}
	return out
}

// Values returns just the values of Window(n).
func (s *Series) Values(n int) []float64 {
	r := s.rows
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]float64, n)
	start := (r.head - n + len(r.at)) % len(r.at)
	for i := range out {
		out[i] = r.val[(start+i)%len(r.at)*len(r.cols)+s.col]
	}
	return out
}

// Since returns all stored samples at or after t, chronological.
func (s *Series) Since(t time.Time) []Sample {
	all := s.Window(0)
	i := sort.Search(len(all), func(i int) bool { return !all[i].At.Before(t) })
	return all[i:]
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
// the REST API and dashboard read from.
type Store struct {
	mu       sync.RWMutex
	series   map[string]*Series
	capacity int
}

// NewStore returns a store whose auto-created series hold capacity samples.
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1024
	}
	return &Store{series: make(map[string]*Series), capacity: capacity}
}

// Series returns the named series, creating it on first use.
func (st *Store) Series(name string) *Series { return st.SeriesSized(name, st.capacity) }

// Lookup returns the named series without creating it — the read for names
// that arrive from outside the program, which must not grow the registry.
func (st *Store) Lookup(name string) (*Series, bool) {
	st.mu.RLock()
	s, ok := st.series[name]
	st.mu.RUnlock()
	return s, ok
}

// SeriesSized returns the named series, creating it on first use with the
// given ring capacity instead of the store default. An existing series keeps
// its original capacity.
func (st *Store) SeriesSized(name string, capacity int) *Series {
	if s, ok := st.Lookup(name); ok {
		return s
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.series[name]; ok {
		return s
	}
	s := NewSeries(name, capacity)
	st.series[name] = s
	return s
}

// Rows creates one ring of capacity rows with a column per name and
// registers every column as the series of its name (replacing a series
// already registered under it), so Series(name) reads the column back. The
// caller keeps the returned handle and writes whole rows through it. The
// orchestrator holds one per slice, sized well below the store default: with
// tens of thousands of slices, default-sized rings would dominate the
// daemon's memory.
func (st *Store) Rows(capacity int, names ...string) *Rows {
	r := newRows(capacity, names...)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range r.cols {
		st.series[s.name] = s
	}
	return r
}

// Record appends to the named series, creating it if needed.
func (st *Store) Record(name string, at time.Time, v float64) {
	st.Series(name).Add(at, v)
}

// Drop removes the named series from the registry; unknown names are
// ignored. Handles obtained earlier stay usable but are no longer reachable
// through the store. The orchestrator calls it when a finished slice leaves
// the retained history, so per-slice rings do not accumulate for the life of
// the daemon.
func (st *Store) Drop(names ...string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, name := range names {
		delete(st.series, name)
	}
}

// Names returns all series names, sorted.
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
