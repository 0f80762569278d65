package slice

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"
)

// freshJSON is the reference the cache must equal: the stdlib encoding of a
// snapshot cut now.
func freshJSON(t *testing.T, s *Slice) []byte {
	t.Helper()
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newSlice(t *testing.T) *Slice {
	t.Helper()
	s, err := New("s-1", validReq())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func activate(t *testing.T, s *Slice) {
	t.Helper()
	for _, step := range []func() error{s.Admit, s.BeginInstall, func() error { return s.Activate(time.Unix(1_700_000_000, 0).UTC()) }} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
}

// mutators is every exported way to change a *Slice, each as one random
// step. Illegal transitions are taken too: they must fail and change nothing.
var mutators = []struct {
	name string
	do   func(*rand.Rand, *Slice)
}{
	{"admit", func(_ *rand.Rand, s *Slice) { s.Admit() }},
	{"reject", func(rng *rand.Rand, s *Slice) {
		if rng.Intn(2) == 0 {
			s.Reject(nil)
			return
		}
		s.Reject(&RejectionCause{Code: RejectLatencyUnmeetable, Domain: "transport", Detail: "no path under <5 ms> & budget"})
	}},
	{"begin-install", func(_ *rand.Rand, s *Slice) { s.BeginInstall() }},
	{"activate", func(rng *rand.Rand, s *Slice) { s.Activate(time.Unix(1_700_000_000+rng.Int63n(1e6), 0).UTC()) }},
	{"begin-resize", func(rng *rand.Rand, s *Slice) { s.BeginResize(rng.Float64()*60, 1, 0.05) }},
	{"end-reconfigure", func(_ *rand.Rand, s *Slice) { s.EndReconfigure() }},
	{"terminate", func(rng *rand.Rand, s *Slice) { s.Terminate([]string{"", "expired", "deleted by tenant"}[rng.Intn(3)]) }},
	{"record-epoch", func(rng *rand.Rand, s *Slice) {
		demand := rng.Float64() * 60
		served := demand
		if rng.Intn(2) == 0 {
			served = demand / 2 // a violation whenever demand is within the contract
		}
		s.RecordEpoch(demand, served, rng.Intn(2) == 0)
	}},
	{"update-allocation", func(rng *rand.Rand, s *Slice) {
		s.UpdateAllocation(func(a *Allocation) {
			a.PRBs = map[string]int{"enb-0": rng.Intn(100), "enb-" + strconv.Itoa(1+rng.Intn(3)): rng.Intn(100)}
			a.PathIDs = []string{"path-" + strconv.Itoa(rng.Intn(9))}
			a.PathLatencyMs = rng.Float64() * 10
			a.DataCenter, a.StackID, a.EPCID = "edge-dc", "stack-1", "epc-"+strconv.Itoa(rng.Intn(9))
			a.PLMN = PLMN{MCC: "001", MNC: strconv.Itoa(10 + rng.Intn(80))}
		})
	}},
	{"update-allocation-in-place", func(rng *rand.Rand, s *Slice) {
		s.UpdateAllocation(func(a *Allocation) {
			for k := range a.PRBs {
				a.PRBs[k] = rng.Intn(100)
			}
		})
	}},
	{"update-allocated-mbps", func(rng *rand.Rand, s *Slice) {
		s.UpdateAllocation(func(a *Allocation) { a.AllocatedMbps = rng.Float64() * 50 })
	}},
	{"commit-reconfigure", func(rng *rand.Rand, s *Slice) {
		s.CommitReconfigure(func(a *Allocation) { a.AllocatedMbps = rng.Float64() * 50 })
	}},
}

// TestSnapshotJSONInvalidation is the cache's whole contract as a property:
// after any mutator — every lifecycle path, both epoch outcomes, the PRB map
// swapped or edited in place, a Rehydrate of the Persist image — the cached
// fragment equals a fresh stdlib marshal, and while nothing mutates, the
// same backing array comes back (a hit, not a re-encode).
func TestSnapshotJSONInvalidation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seen := map[string]bool{}
		var s *Slice
		for step := 0; step < 1500; step++ {
			name := "new"
			switch {
			case s == nil || (s.State() == StateRejected || s.State() == StateTerminated) && rng.Intn(4) == 0:
				req := validReq()
				req.Tenant = []string{"acme", "a<b>&c", "line sep"}[rng.Intn(3)]
				var err error
				if s, err = New(ID("s-"+strconv.Itoa(step)), req); err != nil {
					t.Fatal(err)
				}
			case rng.Intn(12) == 0:
				name = "rehydrate"
				s = Rehydrate(s.Persist())
			default:
				m := mutators[rng.Intn(len(mutators))]
				name = m.name
				m.do(rng, s)
			}
			seen[name+"/"+s.State().String()] = true

			got, err := s.SnapshotJSON()
			if err != nil {
				t.Fatal(err)
			}
			if want := freshJSON(t, s); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d after %s: cached fragment is stale\n got %s\nwant %s", seed, step, name, got, want)
			}
			again, err := s.SnapshotJSON()
			if err != nil {
				t.Fatal(err)
			}
			if &again[0] != &got[0] {
				t.Fatalf("seed %d step %d after %s: unmutated slice was encoded again", seed, step, name)
			}
			if cap(got) != len(got) {
				t.Fatalf("published fragment has spare capacity %d: an append would write shared bytes", cap(got)-len(got))
			}
		}
		for _, want := range []string{
			"reject/rejected", "activate/active", "begin-resize/reconfiguring", "end-reconfigure/active",
			"terminate/terminated", "record-epoch/active", "update-allocation/active",
			"update-allocation-in-place/active", "update-allocated-mbps/active", "rehydrate/active", "rehydrate/rejected",
		} {
			if !seen[want] {
				t.Errorf("seed %d never exercised %s", seed, want)
			}
		}
	}
}

// TestSnapshotJSONFilter: a fragment is handed out only while the slice
// matches, and the hit path applies the filter too.
func TestSnapshotJSONFilter(t *testing.T) {
	s := newSlice(t)
	active := NewFilter("", "active", "")
	if frag, err := s.SnapshotJSONIf(active); frag != nil || err != nil {
		t.Fatalf("pending slice matched state=active: %s, %v", frag, err)
	}
	activate(t, s)
	frag, err := s.SnapshotJSONIf(active)
	if err != nil || !bytes.Equal(frag, freshJSON(t, s)) {
		t.Fatalf("active slice: %s, %v", frag, err)
	}
	if err := s.Terminate("expired"); err != nil {
		t.Fatal(err)
	}
	if frag, _ := s.SnapshotJSONIf(active); frag != nil {
		t.Fatalf("terminated slice still served under state=active: %s", frag)
	}
	for _, tc := range []struct {
		f    Filter
		want bool
	}{
		{NewFilter("", "", ""), true},
		{NewFilter(s.Tenant(), "terminated", ""), true},
		{NewFilter("someone-else", "", ""), false},
		{NewFilter("", "no-such-state", ""), false},
		{NewFilter("", "", RejectRadioCapacity), false},
	} {
		if got := s.Matches(tc.f); got != tc.want {
			t.Errorf("Matches(%+v) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

// TestSnapshotJSONConcurrent: readers loop SnapshotJSON while a writer
// mutates. Every fragment is a whole snapshot (it decodes, and is coherent),
// ServedEpochs never runs backwards for a reader — a stale encode is never
// published over a newer one — and once the writer stops the cache settles
// on the current state. Run under -race.
func TestSnapshotJSONConcurrent(t *testing.T) {
	s := newSlice(t)
	activate(t, s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				frag, err := s.SnapshotJSON()
				if err != nil {
					t.Error(err)
					return
				}
				var snap Snapshot
				if err := json.Unmarshal(frag, &snap); err != nil {
					t.Errorf("fragment does not decode: %v (%s)", err, frag)
					return
				}
				checkSnapshotCoherent(t, snap)
				if snap.Accounting.ServedEpochs < last {
					t.Errorf("served epochs ran backwards: %d after %d", snap.Accounting.ServedEpochs, last)
					return
				}
				last = snap.Accounting.ServedEpochs
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		switch i % 4 {
		case 0, 1:
			s.RecordEpoch(40, 40-float64(i%2)*20, true)
		case 2:
			s.UpdateAllocation(func(a *Allocation) { a.PRBs = map[string]int{"enb-0": rng.Intn(100)} })
		case 3:
			if err := beginReconfigure(s); err != nil {
				t.Fatal(err)
			}
			s.UpdateAllocation(func(a *Allocation) { a.AllocatedMbps = rng.Float64() * 50 })
			if err := s.EndReconfigure(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	got, err := s.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := freshJSON(t, s); !bytes.Equal(got, want) {
		t.Fatalf("cache did not settle on the final state\n got %s\nwant %s", got, want)
	}
}
