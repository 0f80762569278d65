package sim

import (
	"sync"
	"testing"
	"time"
)

// lockedNow reads the clock under the simulator lock: what Now returned
// before it read the mirror.
func lockedNow(s *Simulator) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// TestNowMirrorEqualsClock: the lock-free Now is == (not merely Equal) to
// the locked clock at Epoch, after a RunFor of an odd number of
// nanoseconds, inside and after a step that jumps the clock to a far event,
// and after a RunUntil whose target is in another zone (the clock reads it
// in UTC).
func TestNowMirrorEqualsClock(t *testing.T) {
	s := NewSimulator(1)
	check := func(when string) {
		t.Helper()
		if got, want := s.Now(), lockedNow(s); got != want {
			t.Fatalf("%s: Now() = %v, locked clock %v", when, got, want)
		}
	}
	check("at Epoch")
	if s.Now() != Epoch {
		t.Fatalf("Now() = %v, want Epoch %v", s.Now(), Epoch)
	}

	if err := s.RunFor(1234567891 * time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	check("after an odd-nanosecond RunFor")
	if want := Epoch.Add(1234567891 * time.Nanosecond); s.Now() != want {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}

	far := s.After(90*time.Minute+7*time.Nanosecond, "jump", func() { check("inside the jumping event") })
	if !s.Step() {
		t.Fatal("no event ran")
	}
	check("after a step that jumped the clock")
	if s.Now() != far.When() {
		t.Fatalf("Now() = %v after the jump, event was due %v", s.Now(), far.When())
	}

	target := s.Now().Add(time.Hour + 3*time.Nanosecond)
	if err := s.RunUntil(target.In(time.FixedZone("", 2*3600))); err != nil {
		t.Fatal(err)
	}
	check("after a RunUntil in another zone")
	if s.Now() != target {
		t.Fatalf("Now() = %v, want %v in UTC", s.Now(), target)
	}
}

// TestNowRacesRunFor reads Now from several goroutines while the driver
// advances the clock through periodic events. The race detector owns the
// verdict on the mirror; the readers also require the clock never to move
// backwards.
func TestNowRacesRunFor(t *testing.T) {
	s := NewSimulator(1)
	s.Every(time.Millisecond+3*time.Nanosecond, "tick", func() {})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := Epoch
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := s.Now()
				if now.Before(prev) {
					t.Errorf("clock moved backwards: %v after %v", now, prev)
					return
				}
				prev = now
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if err := s.RunFor(7*time.Millisecond + time.Nanosecond); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if want := Epoch.Add(500 * (7*time.Millisecond + time.Nanosecond)); s.Now() != want {
		t.Fatalf("Now() = %v after the run, want %v", s.Now(), want)
	}
}
