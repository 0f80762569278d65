package overbook

import (
	"testing"

	"repro/internal/slice"
)

// TestEpochResizesMoveTheAllocation pins ROADMAP item 20: every resize the
// control epoch counts should change the slice's allocation. Today most do
// not. A shrink smaller than the radio quantum (one PRB on each of the
// slice's cells) clears the hysteresis band, 5 % of the contract, and then
// rounds back up to the PRBs the slice already holds; it still counts as a
// reconfiguration, publishes EventResized and costs a full domain round
// trip. The fix applies the hysteresis test to the quantized target. That
// moves core.reconfigs_per_epoch, the event stream and the goldens, so it
// waits behind ROADMAP item 1; until then this test is skipped.
func TestEpochResizesMoveTheAllocation(t *testing.T) {
	t.Skip("ROADMAP item 20: phantom epoch resizes")
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
