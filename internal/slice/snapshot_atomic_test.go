package slice

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// checkSnapshotCoherent asserts what one critical section guarantees: the
// state never appears without what the transition into it stamped, and the
// accounting is the one derived from that state.
func checkSnapshotCoherent(t *testing.T, snap Snapshot) {
	t.Helper()
	switch snap.State {
	case "rejected":
		if snap.RejectCode == "" || snap.Reason == "" {
			t.Errorf("%s: rejected without reject_code/reason: %+v", snap.ID, snap)
		}
	case "active":
		if snap.Expires.IsZero() {
			t.Errorf("%s: active with a zero expiry", snap.ID)
		}
	}
	wantPrice := snap.SLA.PriceEUR
	if snap.State == "pending" || snap.State == "rejected" {
		wantPrice = 0
	}
	acct := snap.Accounting
	if acct.PriceEUR != wantPrice {
		t.Errorf("%s: state %s with price %v, want %v", snap.ID, snap.State, acct.PriceEUR, wantPrice)
	}
	if want := float64(acct.ViolationEpochs) * snap.SLA.PenaltyEUR; acct.PenaltyEUR != want {
		t.Errorf("%s: %d violation epochs with penalty %v, want %v", snap.ID, acct.ViolationEpochs, acct.PenaltyEUR, want)
	}
	if acct.NetEUR != acct.PriceEUR-acct.PenaltyEUR {
		t.Errorf("%s: net %v != price %v - penalty %v", snap.ID, acct.NetEUR, acct.PriceEUR, acct.PenaltyEUR)
	}
}

// TestSnapshotNeverTorn hammers Snapshot while a writer drives slices
// through reject, activate and record-epoch. Before those were single
// critical sections a reader could see "rejected" with no reject code,
// "active" with a zero expiry, or the price of the previous state. Run
// under -race.
func TestSnapshotNeverTorn(t *testing.T) {
	rounds := 4000
	if testing.Short() {
		rounds = 400
	}
	var cur atomic.Pointer[Slice]
	first, err := New("s-0", validReq())
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(first)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					checkSnapshotCoherent(t, cur.Load().Snapshot())
					if t.Failed() {
						return // one torn snapshot is the finding; do not flood
					}
				}
			}
		}()
	}

	for i := 1; i <= rounds; i++ {
		s, err := New(ID("s-"+strconv.Itoa(i)), validReq())
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(s)
		if i%3 == 0 {
			if err := s.Reject(&RejectionCause{Code: RejectRadioCapacity, Detail: "no headroom"}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		activate(t, s)
		for e := 0; e < 4; e++ {
			s.RecordEpoch(40, float64(10*e), true) // 40 demanded of 50 contracted: violations until served catches up
		}
		if err := s.Terminate("expired"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
