package transport

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// testNet builds a small testbed-like topology:
//
//	enb1 --mmWave--> sw1 --wired--> edge
//	enb2 --µWave--> sw1 --wired--> core
//	enb1 --µWave--> sw2 --wired--> core   (alternate, slower)
//	sw1 <--wired--> sw2
func testNet(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	for _, nd := range []struct {
		name string
		kind NodeKind
	}{
		{"enb1", KindENB}, {"enb2", KindENB},
		{"sw1", KindSwitch}, {"sw2", KindSwitch},
		{"edge", KindDC}, {"core", KindDC},
	} {
		if err := n.AddNode(nd.name, nd.kind); err != nil {
			t.Fatal(err)
		}
	}
	add := func(a, b string, lt LinkType, cap, delay float64) {
		t.Helper()
		if err := n.AddBiLink(a, b, lt, cap, delay); err != nil {
			t.Fatal(err)
		}
	}
	add("enb1", "sw1", MmWave, 1000, 0.5)
	add("enb2", "sw1", MicroWave, 300, 1.0)
	add("enb1", "sw2", MicroWave, 300, 2.0)
	add("sw1", "sw2", Wired, 10000, 0.2)
	add("sw1", "edge", Wired, 10000, 0.3)
	add("sw1", "core", Wired, 10000, 5.0)
	add("sw2", "core", Wired, 10000, 4.0)
	return n
}

func TestAddLinkValidation(t *testing.T) {
	n := NewNetwork()
	n.AddNode("a", KindSwitch)
	if err := n.AddLink("a", "missing", Wired, 100, 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("link to unknown node: %v", err)
	}
	n.AddNode("b", KindSwitch)
	if err := n.AddLink("a", "b", Wired, 0, 1); err == nil {
		t.Fatal("zero-capacity link accepted")
	}
	if err := n.AddLink("a", "b", Wired, 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("a", "b", Wired, 100, 1); !errors.Is(err, ErrLinkExists) {
		t.Fatalf("duplicate link: %v", err)
	}
}

func TestAddNodeConflict(t *testing.T) {
	n := NewNetwork()
	n.AddNode("x", KindSwitch)
	if err := n.AddNode("x", KindSwitch); err != nil {
		t.Fatalf("idempotent re-add failed: %v", err)
	}
	if err := n.AddNode("x", KindDC); err == nil {
		t.Fatal("kind change accepted")
	}
	if err := n.AddNode("", KindSwitch); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestShortestPathPrefersLowDelay(t *testing.T) {
	n := testNet(t)
	p, err := n.ShortestPath(PathRequest{From: "enb1", To: "core", MinMbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	// enb1->sw1->core = 5.5ms beats enb1->sw2->core = 6.0 and
	// enb1->sw1->sw2->core = 4.7? 0.5+0.2+4.0 = 4.7 — actually best.
	if math.Abs(p.DelayMs-4.7) > 1e-9 {
		t.Fatalf("delay %.2f hops %v", p.DelayMs, p.Hops)
	}
	want := []string{"enb1", "sw1", "sw2", "core"}
	if !slices.Equal(p.Hops, want) {
		t.Fatalf("hops %v, want %v", p.Hops, want)
	}
}

func TestShortestPathBandwidthPruning(t *testing.T) {
	n := testNet(t)
	// Demand above µWave capacity must avoid enb2's only link.
	if _, err := n.ShortestPath(PathRequest{From: "enb2", To: "edge", MinMbps: 500}); !errors.Is(err, ErrNoPath) {
		t.Fatalf("infeasible bandwidth: %v", err)
	}
	p, err := n.ShortestPath(PathRequest{From: "enb2", To: "edge", MinMbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if p.BottleneckMbps != 300 {
		t.Fatalf("bottleneck %.0f", p.BottleneckMbps)
	}
}

func TestShortestPathDelayBudget(t *testing.T) {
	n := testNet(t)
	if _, err := n.ShortestPath(PathRequest{From: "enb1", To: "core", MinMbps: 10, MaxDelayMs: 2}); !errors.Is(err, ErrDelayBudget) {
		t.Fatalf("tight budget: %v", err)
	}
	if _, err := n.ShortestPath(PathRequest{From: "enb1", To: "edge", MinMbps: 10, MaxDelayMs: 1}); err != nil {
		t.Fatalf("edge within 1ms should work: %v", err)
	}
}

func TestShortestPathUnknownNodes(t *testing.T) {
	n := testNet(t)
	if _, err := n.ShortestPath(PathRequest{From: "nope", To: "core"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatal(err)
	}
	if _, err := n.ShortestPath(PathRequest{From: "enb1", To: "nope"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatal(err)
	}
}

func TestReserveLifecycle(t *testing.T) {
	n := testNet(t)
	r, err := n.ReservePath("slice-1/dl", PathRequest{From: "enb1", To: "edge", MinMbps: 400})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mbps != 400 || len(r.Hops) != 3 {
		t.Fatalf("reservation %+v", r)
	}
	l, _ := n.Link("enb1", "sw1")
	if l.ReservedMbps() != 400 || l.ResidualMbps() != 600 {
		t.Fatalf("link accounting %+v", l)
	}
	if _, err := n.ResizeEach([]*Reservation{r}, 700); err != nil {
		t.Fatal(err)
	}
	l, _ = n.Link("enb1", "sw1")
	if l.ResidualMbps() != 300 {
		t.Fatalf("residual after resize %.0f", l.ResidualMbps())
	}
	n.ReleaseEach([]*Reservation{r})
	l, _ = n.Link("enb1", "sw1")
	if l.ReservedMbps() != 0 {
		t.Fatalf("residual after release %.0f", l.ReservedMbps())
	}
	n.ReleaseEach([]*Reservation{r}) // idempotent
}

func TestReserveAtomicity(t *testing.T) {
	n := testNet(t)
	// Saturate sw1->edge so that a path through it fails *after* the first
	// link would have been debitable.
	if _, err := n.Reserve("filler", []string{"sw1", "edge"}, 10000); err != nil {
		t.Fatal(err)
	}
	_, err := n.Reserve("victim", []string{"enb1", "sw1", "edge"}, 100)
	if !errors.Is(err, ErrInsufficientBW) {
		t.Fatalf("expected bandwidth error, got %v", err)
	}
	l, _ := n.Link("enb1", "sw1")
	if l.ReservedMbps() != 0 {
		t.Fatalf("failed reserve leaked %.0f Mbps on first hop", l.ReservedMbps())
	}
}

func TestReserveDuplicateID(t *testing.T) {
	n := testNet(t)
	if _, err := n.Reserve("p", []string{"enb1", "sw1"}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Reserve("p", []string{"enb1", "sw1"}, 10); !errors.Is(err, ErrDuplicatePath) {
		t.Fatalf("duplicate path id: %v", err)
	}
}

func TestResizeFailureLeavesStateIntact(t *testing.T) {
	n := testNet(t)
	a, _ := n.Reserve("a", []string{"enb2", "sw1"}, 200)
	b, _ := n.Reserve("b", []string{"enb2", "sw1"}, 50)
	if _, err := n.ResizeEach([]*Reservation{a}, 300); !errors.Is(err, ErrInsufficientBW) {
		t.Fatalf("oversize resize: %v", err)
	}
	r, _ := n.Reservation("a")
	if r.Mbps != 200 {
		t.Fatalf("failed resize mutated to %.0f", r.Mbps)
	}
	n.ReleaseEach([]*Reservation{b})
	if _, err := n.ResizeEach([]*Reservation{b}, 10); !errors.Is(err, ErrUnknownPath) {
		t.Fatal(err)
	}
}

// TestResizeEachSequentialAndAtomic: ResizeEach behaves like the Resize
// sequence it replaces — later paths see earlier ones re-sized on shared
// links — and a failure part-way puts every path back, bit for bit.
func TestResizeEachSequentialAndAtomic(t *testing.T) {
	n := testNet(t)
	// a and b share enb2->sw1 (300 Mbps); c is alone on enb1->sw1.
	a, _ := n.Reserve("a", []string{"enb2", "sw1"}, 200)
	b, _ := n.Reserve("b", []string{"enb2", "sw1"}, 50)
	c, _ := n.Reserve("c", []string{"enb1", "sw1"}, 10)
	mbps := func(id string) float64 {
		r, ok := n.Reservation(id)
		if !ok {
			t.Fatalf("reservation %s vanished", id)
		}
		return r.Mbps
	}

	// Shrinking a first frees the room b's growth needs: 120+120 fits 300
	// only because the second check sees the first resize applied.
	if failed, err := n.ResizeEach([]*Reservation{a, b, c}, 120); err != nil {
		t.Fatalf("resize each: %s: %v", failed, err)
	}
	if mbps("a") != 120 || mbps("b") != 120 || mbps("c") != 120 {
		t.Fatalf("after resize: a=%.0f b=%.0f c=%.0f", mbps("a"), mbps("b"), mbps("c"))
	}
	// 160+160 overflows the shared link at b: c and a must be put back, and
	// the books must read exactly what they read before the call. Sizes with
	// no short binary form make "exactly" mean something.
	if failed, err := n.ResizeEach([]*Reservation{a, b, c}, 0.1+0.2); err != nil {
		t.Fatalf("resize each: %s: %v", failed, err)
	}
	before := booksOf(n)
	failed, err := n.ResizeEach([]*Reservation{c, a, b}, 160)
	if !errors.Is(err, ErrInsufficientBW) || failed != "b" {
		t.Fatalf("oversize resize each: failed=%q err=%v", failed, err)
	}
	if after := booksOf(n); !slices.Equal(before, after) {
		t.Fatalf("failed resize moved the books:\n before %v\n after  %v", before, after)
	}
	// A released handle fails before anything moves — also once its path ID
	// has been reserved again — and so does a non-positive size.
	n.ReleaseEach([]*Reservation{c})
	if failed, err := n.ResizeEach([]*Reservation{a, c}, 10); !errors.Is(err, ErrUnknownPath) || failed != "c" {
		t.Fatalf("released handle: failed=%q err=%v", failed, err)
	}
	c2, _ := n.Reserve("c", []string{"enb1", "sw1"}, 10)
	before = booksOf(n)
	if failed, err := n.ResizeEach([]*Reservation{a, c}, 10); !errors.Is(err, ErrUnknownPath) || failed != "c" {
		t.Fatalf("stale handle after re-reserve: failed=%q err=%v", failed, err)
	}
	n.ReleaseEach([]*Reservation{c}) // a stale handle releases nothing
	if _, err := n.ResizeEach([]*Reservation{a}, 0); err == nil {
		t.Fatal("resize to 0 Mbps accepted")
	}
	if after := booksOf(n); !slices.Equal(before, after) {
		t.Fatalf("rejected calls moved the books:\n before %v\n after  %v", before, after)
	}
	if failed, err := n.ResizeEach([]*Reservation{c2}, 20); err != nil || mbps("c") != 20 {
		t.Fatalf("live handle of the re-reserved path: failed=%q err=%v", failed, err)
	}
	if msgs := n.AuditConservation(); len(msgs) != 0 {
		t.Fatalf("books do not balance: %v", msgs)
	}
}

// booksOf reads every link's reserved bandwidth (in Snapshot's sorted order)
// followed by every reservation's, for exact before/after comparison.
func booksOf(n *Network) []float64 {
	var out []float64
	for _, l := range n.Snapshot() {
		out = append(out, l.ReservedMbps)
	}
	for _, r := range n.Reservations() {
		out = append(out, r.Mbps)
	}
	return out
}

func TestLinkFailureReroutesAndLists(t *testing.T) {
	n := testNet(t)
	n.Reserve("p1", []string{"enb1", "sw1", "sw2", "core"}, 10)
	ids := n.PathsOverLink("sw1", "sw2")
	if len(ids) != 1 || ids[0] != "p1" {
		t.Fatalf("paths over link %v", ids)
	}
	if err := n.SetLinkUp("sw1", "sw2", false); err != nil {
		t.Fatal(err)
	}
	p, err := n.ShortestPath(PathRequest{From: "enb1", To: "core", MinMbps: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(p.Hops); i++ {
		if p.Hops[i] == "sw1" && p.Hops[i+1] == "sw2" {
			t.Fatalf("path uses dead link: %v", p.Hops)
		}
	}
	if err := n.SetLinkUp("x", "y", false); err == nil {
		t.Fatal("unknown link accepted")
	}
}

func TestReserveOverDownLinkFails(t *testing.T) {
	n := testNet(t)
	n.SetLinkUp("enb1", "sw1", false)
	if _, err := n.Reserve("p", []string{"enb1", "sw1"}, 10); err == nil {
		t.Fatal("reserved over down link")
	}
}

func TestUtilizationAggregates(t *testing.T) {
	n := testNet(t)
	mean, max := n.Utilization()
	if mean != 0 || max != 0 {
		t.Fatal("fresh network utilised")
	}
	n.Reserve("p", []string{"enb2", "sw1"}, 300) // saturates the 300 link
	_, max = n.Utilization()
	if math.Abs(max-1.0) > 1e-9 {
		t.Fatalf("max util %.2f", max)
	}
}

func TestNodesOfKind(t *testing.T) {
	n := testNet(t)
	dcs := n.NodesOfKind(KindDC)
	if len(dcs) != 2 || dcs[0] != "core" || dcs[1] != "edge" {
		t.Fatalf("DCs %v", dcs)
	}
	if got := len(n.NodesOfKind(KindSwitch)); got != 2 {
		t.Fatalf("switches %d", got)
	}
	if got := len(n.Nodes()); got != 6 {
		t.Fatalf("nodes %d", got)
	}
}

func TestSnapshotSortedComplete(t *testing.T) {
	n := testNet(t)
	snap := n.Snapshot()
	if len(snap) != 14 { // 7 bidirectional links
		t.Fatalf("snapshot has %d links", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		a := snap[i-1].From + "->" + snap[i-1].To
		b := snap[i].From + "->" + snap[i].To
		if a >= b {
			t.Fatalf("snapshot unsorted: %s then %s", a, b)
		}
	}
}

// Property: total reserved bandwidth on every link equals the sum over the
// reservations crossing it, after arbitrary reserve/release interleavings.
func TestPropertyReservationConservation(t *testing.T) {
	f := func(ops []struct {
		Release bool
		Mbps    uint8
	}) bool {
		n := testNet(t)
		var held []*Reservation
		total := map[string]float64{}
		for i, op := range ops {
			if op.Release && len(held) > 0 {
				h := held[len(held)-1]
				held = held[:len(held)-1]
				r, _ := n.Reservation(h.ID)
				for j := 0; j+1 < len(r.Hops); j++ {
					total[r.Hops[j]+"->"+r.Hops[j+1]] -= r.Mbps
				}
				n.ReleaseEach([]*Reservation{h})
				continue
			}
			mbps := float64(op.Mbps%50) + 1
			id := string(rune('a'+i%26)) + string(rune('0'+i/26))
			r, err := n.ReservePath(id, PathRequest{From: "enb1", To: "core", MinMbps: mbps})
			if err != nil {
				continue
			}
			held = append(held, r)
			for j := 0; j+1 < len(r.Hops); j++ {
				total[r.Hops[j]+"->"+r.Hops[j+1]] += mbps
			}
		}
		for key, want := range total {
			var from, to string
			for i := 0; i+2 < len(key); i++ {
				if key[i:i+2] == "->" {
					from, to = key[:i], key[i+2:]
					break
				}
			}
			l, ok := n.Link(from, to)
			if !ok || math.Abs(l.ReservedMbps()-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
