package sim

import "time"

// Test-only ways to step the queue and look at it: the shipped code runs
// the simulator through RunUntil and RunFor.

// When returns the time the event is due to fire next.
func (e *Event) When() time.Time { return e.when }

// Drain runs until the queue is empty or maxEvents callbacks have fired.
// It returns the number of events executed. maxEvents <= 0 means unbounded —
// only safe when no periodic events are registered.
func (s *Simulator) Drain(maxEvents int) int {
	n := 0
	for s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// Step executes the single earliest event, advancing the clock to its due
// time. It reports whether an event was executed. The callback runs without
// the scheduler lock held, so it may schedule or cancel events freely.
func (s *Simulator) Step() bool {
	return s.step(time.Time{}, false)
}
