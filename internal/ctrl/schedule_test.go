package ctrl_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/ran"
	"repro/internal/slice"
)

// schedWorld is one RAN of three cells, each faded to its own channel
// quality.
func schedWorld(t *testing.T) *ctrl.RANController {
	t.Helper()
	net := ran.NewNetwork()
	for i := 0; i < 3; i++ {
		e, err := ran.NewENB(ran.Config{Name: fmt.Sprintf("enb-%d", i+1), MaxPLMNs: 16})
		if err != nil {
			t.Fatal(err)
		}
		e.SetMeanCQI(float64(9 + i))
		if err := net.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return ctrl.NewRANController(net)
}

// TestScheduleByHandleMatchesByName runs random reserve / resize / release /
// re-reserve sequences on two identical RANs and, after every step, schedules
// the same load on both: by handle (ScheduleDense over the slices' bindings,
// the control epoch's pass) on one, by name (the map-typed ScheduleEpoch) on
// the other. Served throughput and
// utilization must agree to the bit. PLMNs are recycled, so released slices'
// bindings — which the handle pass is given load for too — share their PLMN
// with a live reservation; they must be served nothing and take nothing from
// the live one.
func TestScheduleByHandleMatchesByName(t *testing.T) {
	type slot struct {
		p            slice.PLMN
		byH, byN     *ctrl.Binding // the slot's binding on each RAN
		live, seeded bool
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, n := schedWorld(t), schedWorld(t)
		pool := make([]slice.PLMN, 6) // fewer PLMNs than slots: recycled
		for i := range pool {
			pool[i] = slice.PLMN{MCC: "001", MNC: fmt.Sprintf("%02d", i+1)}
		}
		slots := make([]slot, 10)
		held := map[slice.PLMN]bool{}
		for step := 0; step < 150; step++ {
			i := rng.Intn(len(slots))
			s := &slots[i]
			mbps := 1 + rng.Float64()*30
			var op string
			switch {
			case !s.live:
				op = "reserve"
				var free []slice.PLMN
				for _, p := range pool {
					if !held[p] {
						free = append(free, p)
					}
				}
				if len(free) == 0 {
					continue
				}
				p := free[rng.Intn(len(free))]
				bh, bn := new(ctrl.Binding), new(ctrl.Binding)
				_, ch := h.Reserve(ctrl.Tx{PLMN: p, Mbps: mbps, Binding: bh})
				_, cn := n.Reserve(ctrl.Tx{PLMN: p, Mbps: mbps, Binding: bn})
				if (ch == nil) != (cn == nil) {
					t.Fatalf("seed %d step %d: reserve diverged: %v vs %v", seed, step, ch, cn)
				}
				if ch != nil {
					continue
				}
				*s = slot{p: p, byH: bh, byN: bn, live: true, seeded: true}
				held[p] = true
			case rng.Intn(3) == 0:
				op = "release"
				h.ReleaseSlice(s.p)
				n.ReleaseSlice(s.p)
				s.live = false
				held[s.p] = false
			default:
				op = "resize"
				_, eh := h.Resize(ctrl.Tx{Binding: s.byH}, mbps)
				_, en := n.Resize(ctrl.Tx{Binding: s.byN}, mbps)
				if (eh == nil) != (en == nil) {
					t.Fatalf("seed %d step %d: resize diverged: %v vs %v", seed, step, eh, en)
				}
			}

			// One epoch's load: every live slice and every released one.
			var binds []*ctrl.Binding
			var demand []float64
			var dead []int
			byName := map[slice.PLMN]float64{}
			for k := range slots {
				if !slots[k].seeded {
					continue
				}
				d := rng.Float64() * 40
				if !slots[k].live {
					dead = append(dead, len(binds))
				} else {
					byName[slots[k].p] = d
				}
				binds = append(binds, slots[k].byH)
				demand = append(demand, d)
			}
			share := rng.Intn(2) == 0
			served := make([]float64, len(binds))
			util := h.ScheduleDense(binds, demand, served, share)
			want, wantUtil := n.ScheduleEpoch(byName, share)
			if math.Float64bits(util) != math.Float64bits(wantUtil) {
				t.Fatalf("seed %d step %d (%s): utilization %v by handle, %v by name", seed, step, op, util, wantUtil)
			}
			j := 0
			for k := range slots {
				if !slots[k].seeded {
					continue
				}
				if slots[k].live && math.Float64bits(served[j]) != math.Float64bits(want[slots[k].p]) {
					t.Fatalf("seed %d step %d (%s): %s served %v by handle, %v by name",
						seed, step, op, slots[k].p, served[j], want[slots[k].p])
				}
				j++
			}
			for _, d := range dead {
				if served[d] != 0 {
					t.Fatalf("seed %d step %d (%s): a released binding was served %v", seed, step, op, served[d])
				}
			}
		}
	}
}
