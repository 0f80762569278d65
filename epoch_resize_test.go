package overbook

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/slice"
	"repro/internal/traffic"
)

// TestEpochResizesMoveTheAllocation: every resize the control epoch counts
// changes the slice's allocation. A shrink smaller than the radio quantum
// (one PRB on each of the slice's cells) clears the hysteresis band, 5 % of
// the contract, and then rounds back up to the PRBs the slice already
// holds; Slice.BeginResize asks the radio after the band, so such a target
// is no resize — no reconfiguration counted, no EventResized, no domain
// round trip. Without the radio's answer, 5 003 of 5 049 resizes over these
// 20 warm epochs left the allocation bit-identical.
func TestEpochResizesMoveTheAllocation(t *testing.T) {
	sys := epochLoadedSystem(t, 256, 16)
	o := sys.Orchestrator
	for i := 0; i < 8; i++ {
		o.RunEpoch()
	}
	before := make(map[slice.ID]float64)
	var resized, phantom int
	for e := 0; e < 20; e++ {
		for _, s := range o.List() {
			before[s.ID] = s.Allocation.AllocatedMbps
		}
		reconfigs := o.Gain().Reconfigurations
		o.RunEpoch()
		var moved int
		for _, s := range o.List() {
			if s.Allocation.AllocatedMbps != before[s.ID] {
				moved++
			}
		}
		n := o.Gain().Reconfigurations - reconfigs
		resized += n
		phantom += n - moved
	}
	if resized == 0 {
		t.Fatal("no slice was resized; the test would prove nothing")
	}
	if phantom > 0 {
		t.Fatalf("%d of %d epoch resizes left the slice's allocation bit-identical", phantom, resized)
	}
}

// epochOutcomeDigest is TestEpochOutcomeDigest's value as computed before
// resizes began to ask the radio whether they move anything; a change to
// which resizes happen must keep it.
const epochOutcomeDigest = "85a72c0cb87ea3ec0fa9f28d5ec911be6e0a147ef454d0db65f0209f26b113db"

// TestEpochOutcomeDigest pins the float bits an epoch change must keep: 256
// slices with the epoch_1k demand mix (one third each constant, diurnal and
// bursty) run 64 epochs, then every slice's allocated throughput, PRBs per
// eNB and accounting, in ID order, and the gain report without its
// reconfiguration count are hashed. A change that drops resizes which move
// nothing keeps the digest; one that moves an allocation, a violation or a
// euro does not.
func TestEpochOutcomeDigest(t *testing.T) {
	sys := epochSystem(t, 256, 16, nil, func(i int, rng *rand.Rand) traffic.Demand {
		switch i % 3 {
		case 0:
			return traffic.NewConstant(1, 0.15, rng)
		case 1:
			return traffic.NewDiurnal(1, 0.6, 14, 0.1, rng)
		default:
			return traffic.NewBursty(0.5, 1.8, 0.05, 0.3, 0.1, rng)
		}
	})
	o := sys.Orchestrator
	for e := 0; e < 64; e++ {
		if err := sys.Sim.RunFor(o.Config().Epoch); err != nil {
			t.Fatal(err)
		}
		o.RunEpoch()
	}
	h := sha256.New()
	f := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	n := func(v int) { binary.Write(h, binary.LittleEndian, int64(v)) }
	snaps := o.List()
	slices.SortFunc(snaps, func(a, b slice.Snapshot) int { return strings.Compare(string(a.ID), string(b.ID)) })
	for _, s := range snaps {
		h.Write([]byte(s.ID))
		f(s.Allocation.AllocatedMbps)
		for _, cell := range slices.Sorted(maps.Keys(s.Allocation.PRBs)) {
			h.Write([]byte(cell))
			n(s.Allocation.PRBs[cell])
		}
		a := s.Accounting
		for _, v := range []float64{a.PriceEUR, a.PenaltyEUR, a.NetEUR, a.ViolationRate, a.DemandMbps, a.ServedMbps} {
			f(v)
		}
		n(a.ServedEpochs)
		n(a.ViolationEpochs)
	}
	g := o.Gain()
	for _, v := range []float64{g.CapacityMbps, g.ContractedMbps, g.AllocatedMbps, g.OverbookingRatio, g.MultiplexingGain,
		g.RevenueTotalEUR, g.PenaltyTotalEUR, g.NetRevenueEUR} {
		f(v)
	}
	for _, v := range []int{g.Admitted, g.Rejected, g.Active, g.ViolationEpochs, g.Epochs} {
		n(v)
	}
	for _, r := range slices.Sorted(maps.Keys(g.RejectReasons)) {
		h.Write([]byte(r))
		n(g.RejectReasons[r])
	}
	if g.Epochs != 64 || g.Active != 256 || g.ViolationEpochs == 0 {
		t.Fatalf("%d epochs, %d active, %d violation epochs: the digest would pin a degenerate run", g.Epochs, g.Active, g.ViolationEpochs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != epochOutcomeDigest {
		t.Fatalf("epoch outcome digest %s, want %s (%d violation epochs, %d reconfigurations)", got, epochOutcomeDigest, g.ViolationEpochs, g.Reconfigurations)
	}
}
