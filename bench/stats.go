package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a percentile for it
// to be reported (choosing-metrics §1): a p99 needs 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of the
// ascending-sorted samples, and whether at least minBeyond samples lie
// beyond it.
func percentile(sorted []int64, p float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

// stat is one reported value: the median over the measured windows, the
// extremes, and the number of samples behind it. thin marks a percentile
// with fewer than minBeyond samples beyond it.
type stat struct {
	v, min, max float64
	n           int
	thin        bool
}

func statOf(perWindow []float64, n int) stat {
	if len(perWindow) == 0 {
		return stat{}
	}
	return stat{v: median(perWindow), min: slices.Min(perWindow), max: slices.Max(perWindow), n: n}
}

// series is one latency series cut into measured windows: cut[i] is len(ns)
// when window i ended.
type series struct {
	ns  []int64
	cut []int
}

func newSeries(capacity int) *series { return &series{ns: make([]int64, 0, capacity)} }

func (s *series) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }
func (s *series) endWindow()          { s.cut = append(s.cut, len(s.ns)) }
func (s *series) reset()              { s.ns, s.cut = s.ns[:0], s.cut[:0] }

// pct reports the p-th percentile in units of div nanoseconds: the median
// of the per-window percentiles when every window supports it, otherwise
// the percentile of all windows pooled (thin if even that has fewer than
// minBeyond samples beyond it). speed, when given, holds one host-speed
// factor per window, and each window's percentile is multiplied by its own
// (a latency taken on a slow host is scaled down to nominal speed).
func (s *series) pct(p float64, div float64, speed []float64) stat {
	if len(s.ns) == 0 {
		return stat{}
	}
	factor := func(i int) float64 {
		if i < len(speed) {
			return speed[i]
		}
		return 1
	}
	var per []float64
	lo := 0
	for i, hi := range s.cut {
		w := slices.Clone(s.ns[lo:hi])
		slices.Sort(w)
		v, ok := percentile(w, p)
		if !ok {
			per = nil
			break
		}
		per = append(per, float64(v)/div*factor(i))
		lo = hi
	}
	if per != nil {
		return statOf(per, len(s.ns))
	}
	all := slices.Clone(s.ns)
	slices.Sort(all)
	v, ok := percentile(all, p)
	f := float64(v) / div
	if len(speed) > 0 {
		f *= median(speed)
	}
	return stat{v: f, min: f, max: f, n: len(all), thin: !ok}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
