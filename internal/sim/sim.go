// Package sim provides the discrete-event simulation kernel that drives
// every substrate in the testbed reproduction.
//
// The original demo ran on a wall-clock hardware testbed. Reproducing it as
// a library requires experiments to be fast and deterministic, so all
// components take their notion of time from a Clock. Two implementations are
// provided: Simulator (a classic event-heap discrete-event engine with a
// virtual clock) and RealtimeClock (a thin wrapper over time.Now used by the
// live dashboard daemon). Orchestrator code is identical under both.
//
// Scheduling (Now, At, After, Every, Event.Cancel) is safe for concurrent
// use on both clocks, so the concurrent orchestrator core can install
// timers from parallel admissions. Advancing a Simulator (RunUntil,
// RunFor) and drawing from Rand remain single-goroutine operations:
// one driver advances virtual time, which is what keeps experiments
// deterministic.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the minimal time source every component depends on.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// Scheduler is implemented by clocks that can run callbacks in the future.
type Scheduler interface {
	Clock
	// At schedules fn to run at time t. Scheduling in the past (or exactly
	// now) runs fn at the current time, never before it.
	At(t time.Time, name string, fn func()) *Event
	// After schedules fn to run d after the current time.
	After(d time.Duration, name string, fn func()) *Event
	// Every schedules fn to run every d, starting d from now, until the
	// returned Event is cancelled.
	Every(d time.Duration, name string, fn func()) *Event
}

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel pending work (e.g. a slice expiry timer when the slice
// is deleted early).
type Event struct {
	when     time.Time
	seq      uint64 // tie-break so equal-time events run in schedule order
	name     string
	fn       func()
	period   time.Duration // >0 for periodic events
	canceled atomic.Bool
	stop     func() // releases the backing runtime timer (RealtimeClock)
	index    int    // heap index, -1 when not queued
}

// Cancel prevents the event from firing again. Cancelling an already-fired
// one-shot event is a no-op. Cancel is safe to call from inside the event's
// own callback (this is how periodic tasks stop themselves) and from any
// goroutine. On a RealtimeClock it also releases the backing runtime timer
// immediately, so churning slices do not accumulate dead timers.
func (e *Event) Cancel() {
	e.canceled.Store(true)
	if e.stop != nil {
		e.stop()
	}
}

// eventQueue is a min-heap ordered by (when, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when.Equal(q[j].when) {
		return q[i].seq < q[j].seq
	}
	return q[i].when.Before(q[j].when)
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Simulator is a deterministic discrete-event engine. Scheduling and Now
// are safe for concurrent use (the concurrent orchestrator installs timers
// from parallel goroutines); advancing time (RunUntil, RunFor) and Rand
// are driven by a single goroutine, which is what removes every
// race from the experiments.
type Simulator struct {
	mu    sync.Mutex
	now   time.Time
	queue eventQueue
	seq   uint64
	rng   *rand.Rand
	// nowNanos mirrors now as Unix nanoseconds so Now reads the clock
	// without the mutex. setNowLocked is the one writer of both, and it
	// keeps now in UTC (Epoch's zone), so time.Unix(0, nowNanos).UTC() is
	// == to now.
	nowNanos atomic.Int64
}

// Epoch is the default simulation start time. A fixed epoch (rather than
// time.Now) keeps runs bit-for-bit reproducible.
var Epoch = time.Date(2018, time.August, 20, 0, 0, 0, 0, time.UTC)

// NewSimulator returns a Simulator starting at Epoch with a seeded RNG.
func NewSimulator(seed int64) *Simulator {
	s := &Simulator{rng: rand.New(rand.NewSource(seed))}
	s.setNowLocked(Epoch)
	return s
}

// Now implements Clock. It takes no lock: it reads the clock's atomic
// mirror, which is as current as the last step that moved the clock.
func (s *Simulator) Now() time.Time {
	return time.Unix(0, s.nowNanos.Load()).UTC()
}

// setNowLocked moves the clock to t, read in UTC, and its lock-free mirror
// with it. Caller holds s.mu (or owns s exclusively).
func (s *Simulator) setNowLocked(t time.Time) {
	s.now = t.UTC()
	s.nowNanos.Store(t.UnixNano())
}

// Rand exposes the simulator's deterministic random source. All stochastic
// models (traffic noise, arrival processes) must draw from this,
// never from the global rand, so a seed fully determines a run. It is not
// synchronized: only the driving goroutine may draw from it.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// At implements Scheduler.
func (s *Simulator) At(t time.Time, name string, fn func()) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.atLocked(t, name, fn)
}

func (s *Simulator) atLocked(t time.Time, name string, fn func()) *Event {
	if t.Before(s.now) {
		t = s.now
	}
	e := &Event{when: t, seq: s.seq, name: name, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// After implements Scheduler.
func (s *Simulator) After(d time.Duration, name string, fn func()) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.atLocked(s.now.Add(d), name, fn)
}

// Every implements Scheduler.
func (s *Simulator) Every(d time.Duration, name string, fn func()) *Event {
	if d <= 0 {
		panic(fmt.Sprintf("sim: Every(%v) requires a positive period", d))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.atLocked(s.now.Add(d), name, fn)
	e.period = d
	return e
}

// ErrDeadlock is returned by RunUntil when the queue drains before the
// target time is reached and no progress can be made.
var ErrDeadlock = errors.New("sim: event queue empty before target time")

// step pops and executes the earliest live event. When bounded, events due
// after limit stay queued and step reports false — this keeps RunUntil from
// overshooting its target when a concurrent Cancel removes the event peeked
// at the head (events due exactly at limit do run).
func (s *Simulator) step(limit time.Time, bounded bool) bool {
	s.mu.Lock()
	for len(s.queue) > 0 && s.queue[0].canceled.Load() {
		heap.Pop(&s.queue)
	}
	if len(s.queue) == 0 || (bounded && s.queue[0].when.After(limit)) {
		s.mu.Unlock()
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	// Never move the clock backwards: a concurrent scheduler may have
	// enqueued this event (clamped against a pre-jump now) just before a
	// RunUntil empty-queue jump.
	if e.when.After(s.now) {
		s.setNowLocked(e.when)
	}
	s.mu.Unlock()
	e.fn()
	if e.period > 0 && !e.canceled.Load() {
		s.mu.Lock()
		e.when = e.when.Add(e.period)
		e.seq = s.seq
		s.seq++
		heap.Push(&s.queue, e)
		s.mu.Unlock()
	}
	return true
}

// RunUntil executes events in order until the virtual clock reaches t.
// Events due exactly at t are executed. The clock always ends at t even when
// the queue drains early, so periodic samplers restarted afterwards line up.
func (s *Simulator) RunUntil(t time.Time) error {
	for s.step(t, true) {
	}
	s.mu.Lock()
	if t.After(s.now) {
		s.setNowLocked(t)
	}
	s.mu.Unlock()
	return nil
}

// RunFor advances the clock by d, executing everything due in the window.
func (s *Simulator) RunFor(d time.Duration) error {
	return s.RunUntil(s.Now().Add(d))
}

// RealtimeClock adapts wall-clock time to the Scheduler interface so the
// live daemon (cmd/orchestrator) can run the exact same orchestration code
// as the deterministic experiments. Safe for concurrent use.
type RealtimeClock struct {
	mu     sync.Mutex
	timers map[*Event]*time.Timer
}

// NewRealtimeClock returns a Scheduler backed by the runtime timers.
func NewRealtimeClock() *RealtimeClock {
	return &RealtimeClock{timers: make(map[*Event]*time.Timer)}
}

// Now implements Clock.
func (c *RealtimeClock) Now() time.Time { return time.Now() }

// At implements Scheduler.
func (c *RealtimeClock) At(t time.Time, name string, fn func()) *Event {
	d := time.Until(t)
	if d < 0 {
		d = 0
	}
	return c.schedule(d, 0, name, fn)
}

// After implements Scheduler.
func (c *RealtimeClock) After(d time.Duration, name string, fn func()) *Event {
	return c.schedule(d, 0, name, fn)
}

// Every implements Scheduler.
func (c *RealtimeClock) Every(d time.Duration, name string, fn func()) *Event {
	return c.schedule(d, d, name, fn)
}

func (c *RealtimeClock) schedule(d, period time.Duration, name string, fn func()) *Event {
	e := &Event{when: time.Now().Add(d), name: name, fn: fn, period: period, index: -1}
	var run func()
	run = func() {
		c.mu.Lock()
		delete(c.timers, e) // this firing consumed the timer
		canceled := e.canceled.Load()
		c.mu.Unlock()
		if canceled {
			return
		}
		fn()
		if period > 0 {
			c.mu.Lock()
			if !e.canceled.Load() {
				e.when = time.Now().Add(period)
				c.timers[e] = time.AfterFunc(period, run)
			}
			c.mu.Unlock()
		}
	}
	// Cancel releases the runtime timer and its map entry eagerly, so a
	// daemon churning short-lived slices does not leak one timer per
	// cancelled installation stage or expiry.
	e.stop = func() {
		c.mu.Lock()
		if t, ok := c.timers[e]; ok {
			t.Stop()
			delete(c.timers, e)
		}
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.timers[e] = time.AfterFunc(d, run)
	c.mu.Unlock()
	return e
}

// CancelAll stops every outstanding timer. Used at daemon shutdown.
func (c *RealtimeClock) CancelAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e, t := range c.timers {
		e.canceled.Store(true)
		t.Stop()
		delete(c.timers, e)
	}
}
