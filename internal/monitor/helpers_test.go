package monitor

import (
	"sort"
	"time"
)

// Test-only readers and writers of the rings: the shipped code appends
// through AddEach and Series.Add and reads through Window and Last.

// Add appends one row, evicting the oldest when full: vals[i] goes to column
// i, columns past len(vals) read zero.
func (r *Rows) Add(atNanos int64, vals ...float64) {
	sl, slot := r.lock()
	defer sl.mu.Unlock()
	copy(sl.pushLocked(slot, atNanos), vals)
}

// Capacity returns the ring size.
func (s *Series) Capacity() int { return s.rows.sl.Load().capacity }

// Since returns all stored samples at or after t, chronological.
func (s *Series) Since(t time.Time) []Sample {
	all := s.Window(0)
	i := sort.Search(len(all), func(i int) bool { return !all[i].At.Before(t) })
	return all[i:]
}

// Record appends to the named series, creating it if needed.
func (st *Store) Record(name string, at time.Time, v float64) {
	st.Series(name).Add(at, v)
}
