package slice

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"
)

// lockedState reads the state field under the slice lock: what State
// returned before it read the mirror.
func lockedState(s *Slice) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// checkMirror requires the lock-free State to equal the locked field.
func checkMirror(t *testing.T, s *Slice, when string) {
	t.Helper()
	if got, want := s.State(), lockedState(s); got != want {
		t.Fatalf("%s: State() = %s, locked state %s", when, got, want)
	}
}

// TestStateMirrorFollowsEveryTransition walks every edge of the lifecycle —
// each legal transition, the resize pair in both states it runs in, and
// illegal transitions that must change nothing — and requires State to
// equal the locked field after each step, and after Rehydrate of every
// state's Persist image. A random walk over every mutator follows.
func TestStateMirrorFollowsEveryTransition(t *testing.T) {
	const floor, threshold = 1, 0.05
	paths := [][]struct {
		name string
		do   func(*Slice) error
	}{
		{{"reject", func(s *Slice) error { return s.Reject(nil) }}},
		{
			{"admit", (*Slice).Admit},
			{"terminate-admitted", func(s *Slice) error { return s.Terminate("deleted") }},
		},
		{
			{"admit", (*Slice).Admit},
			{"begin-install", (*Slice).BeginInstall},
			{"resize-installing", func(s *Slice) error { s.BeginResize(40, floor, threshold, radioMoves); return nil }},
			{"commit-installing", func(s *Slice) error {
				s.CommitReconfigure(func(a *Allocation) { a.AllocatedMbps = 40 })
				return nil
			}},
			{"terminate-installing", func(s *Slice) error { return s.Terminate("deleted") }},
		},
		{
			{"admit", (*Slice).Admit},
			{"begin-install", (*Slice).BeginInstall},
			{"activate", func(s *Slice) error { return s.Activate(time.Unix(1_700_000_000, 0).UTC()) }},
			{"begin-resize", func(s *Slice) error { s.BeginResize(40, floor, threshold, radioMoves); return nil }},
			{"commit-reconfigure", func(s *Slice) error {
				s.CommitReconfigure(func(a *Allocation) { a.AllocatedMbps = 40 })
				return nil
			}},
			{"begin-resize-again", func(s *Slice) error { s.BeginResize(10, floor, threshold, radioMoves); return nil }},
			{"end-reconfigure", (*Slice).EndReconfigure},
			{"begin-resize-then-terminate", func(s *Slice) error { s.BeginResize(10, floor, threshold, radioMoves); return nil }},
			{"terminate-reconfiguring", func(s *Slice) error { return s.Terminate("expired") }},
		},
	}
	seen := map[State]bool{}
	for k, path := range paths {
		s, err := New(ID("s-"+strconv.Itoa(k)), validReq())
		if err != nil {
			t.Fatal(err)
		}
		checkMirror(t, s, "new")
		seen[s.State()] = true
		for _, step := range path {
			if err := step.do(s); err != nil {
				t.Fatalf("path %d, %s: %v", k, step.name, err)
			}
			checkMirror(t, s, step.name)
			seen[s.State()] = true
			before := s.State()
			if err := s.Admit(); err == nil { // no step leaves a slice pending
				t.Fatalf("path %d, %s: admit out of %s succeeded", k, step.name, before)
			}
			checkMirror(t, s, step.name+" then an illegal admit")
			if s.State() != before {
				t.Fatalf("path %d, %s: an illegal admit moved %s to %s", k, step.name, before, s.State())
			}
			r := Rehydrate(s.Persist())
			checkMirror(t, r, step.name+" rehydrated")
			if r.State() != before {
				t.Fatalf("path %d, %s: rehydrated as %s, want %s", k, step.name, r.State(), before)
			}
		}
	}
	for st := StatePending; st <= StateTerminated; st++ {
		if !seen[st] {
			t.Errorf("no path reached %s", st)
		}
	}

	rng := rand.New(rand.NewSource(46))
	s, _ := New("s-walk", validReq())
	for step := 0; step < 3000; step++ {
		name := "rehydrate"
		if rng.Intn(10) == 0 {
			s = Rehydrate(s.Persist())
		} else {
			m := mutators[rng.Intn(len(mutators))]
			name = m.name
			m.do(rng, s)
		}
		checkMirror(t, s, "walk step "+strconv.Itoa(step)+" ("+name+")")
		if st := s.State(); (st == StateRejected || st == StateTerminated) && rng.Intn(4) == 0 {
			s, _ = New(ID("s-walk-"+strconv.Itoa(step)), validReq())
		}
	}
}

// TestStateRacesTransitions reads State from several goroutines while one
// writer drives fresh slices through every transition, the resize pair
// included. The race detector owns the verdict on the mirror; the readers
// also require every state they see to be a lifecycle state, and a slice
// never to return to pending or to leave rejected or terminated.
func TestStateRacesTransitions(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	var (
		mu  sync.Mutex
		cur *Slice
	)
	load := func() *Slice { mu.Lock(); defer mu.Unlock(); return cur }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				last   *Slice
				lastSt State
			)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := load()
				if s == nil {
					continue
				}
				st := s.State()
				if st < StatePending || st > StateTerminated {
					t.Errorf("%s: State() = %d, not a lifecycle state", s.ID(), int(st))
					return
				}
				if s == last && st != lastSt &&
					(st == StatePending || lastSt == StateRejected || lastSt == StateTerminated) {
					t.Errorf("%s: State() went from %s to %s", s.ID(), lastSt, st)
					return
				}
				last, lastSt = s, st
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		s, err := New(ID("s-"+strconv.Itoa(i)), validReq())
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		cur = s
		mu.Unlock()
		if i%4 == 0 {
			if err := s.Reject(&RejectionCause{Code: RejectRadioCapacity, Detail: "no headroom"}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		activate(t, s)
		for e, target := range []float64{10, 40, 25} {
			if _, _, resize := s.BeginResize(target, 1, 0.05, radioMoves); !resize {
				t.Fatalf("%s: no resize toward %v", s.ID(), target)
			}
			if e == 1 { // a domain refused: back to active, allocation kept
				if err := s.EndReconfigure(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			s.CommitReconfigure(func(a *Allocation) { a.AllocatedMbps = target })
		}
		if i%3 == 0 {
			mu.Lock()
			cur = Rehydrate(s.Persist())
			s = cur
			mu.Unlock()
		}
		if err := s.Terminate("expired"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
