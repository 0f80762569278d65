package ctrl

import (
	"strings"
	"testing"

	"repro/internal/slice"
	"repro/internal/transport"
)

// shareNet is a two-eNB transport with a primary and a backup switch in
// front of one data center, so a path can be re-routed around a failed link.
func shareNet(t *testing.T) *transport.Network {
	t.Helper()
	n := transport.NewNetwork()
	for name, kind := range map[string]transport.NodeKind{
		"enb-a": transport.KindENB, "enb-b": transport.KindENB,
		"sw": transport.KindSwitch, "sw2": transport.KindSwitch, "dc": transport.KindDC,
	} {
		if err := n.AddNode(name, kind); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct {
		a, b    string
		delayMs float64
	}{{"enb-a", "sw", 0.5}, {"enb-b", "sw", 0.5}, {"enb-a", "sw2", 2.5}, {"enb-b", "sw2", 2.5}, {"sw", "dc", 0.3}, {"sw2", "dc", 1}} {
		if err := n.AddBiLink(l.a, l.b, transport.Wired, 1000, l.delayMs); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// checkMirror asserts that b's share mirror is known and equals every bound
// path's bandwidth on the network.
func checkMirror(t *testing.T, n *transport.Network, b *Binding, step string) {
	t.Helper()
	if b.pathMbps <= 0 || len(b.paths) == 0 {
		t.Fatalf("%s: share %v over %d paths", step, b.pathMbps, len(b.paths))
	}
	for _, r := range b.paths {
		held, ok := n.Reservation(r.ID)
		if !ok || held.Mbps != b.pathMbps {
			t.Fatalf("%s: path %s holds %v Mbps (live %v), the binding mirrors %v", step, r.ID, held.Mbps, ok, b.pathMbps)
		}
	}
}

// TestPathShareMirror: every producer of path handles — install, a re-route,
// an impose and a resize — leaves the binding's share equal to what its paths
// hold, so a resize to that share skips the network; after a re-route or an
// impose at another share, or a failed re-reserve, a resize to the old share
// still reaches the network.
func TestPathShareMirror(t *testing.T) {
	n := shareNet(t)
	c := NewTransportController(n)
	b := new(Binding)
	tx := Tx{Slice: "s1", DataCenter: "dc", Mbps: 100, Binding: b}
	if _, cause := c.Reserve(tx); cause != nil {
		t.Fatal(cause)
	}
	checkMirror(t, n, b, "install")

	v := n.Version()
	if err := c.ResizePaths(b, 300); err != nil {
		t.Fatal(err)
	}
	if n.Version() == v {
		t.Fatal("a resize to a new share did not reach the network")
	}
	checkMirror(t, n, b, "resize")
	v = n.Version()
	if err := c.ResizePaths(b, 300); err != nil {
		t.Fatal(err)
	}
	if n.Version() != v {
		t.Fatal("a resize to the share the paths hold reached the network")
	}

	// A re-route at another bandwidth: a resize back to the old share moves
	// the new paths.
	if err := n.SetLinkUp("enb-a", "sw", false); err != nil {
		t.Fatal(err)
	}
	c.Release("s1", slice.PLMN{})
	tx.Mbps = 40
	if _, cause := c.Reserve(tx); cause != nil {
		t.Fatal(cause)
	}
	checkMirror(t, n, b, "re-route")
	v = n.Version()
	if err := c.ResizePaths(b, 300); err != nil || n.Version() == v {
		t.Fatalf("resize to the pre-re-route share: %v (reached the network: %v)", err, n.Version() != v)
	}
	checkMirror(t, n, b, "resize after re-route")

	// An impose at another bandwidth: likewise.
	var logged []transport.Reservation
	for _, r := range b.paths {
		held, _ := n.Reservation(r.ID)
		held.Mbps = 70
		logged = append(logged, held)
	}
	c.ReleasePaths("s1")
	if err := c.ImposePaths(b, "s1", logged); err != nil {
		t.Fatal(err)
	}
	checkMirror(t, n, b, "impose")
	v = n.Version()
	if err := c.ResizePaths(b, 300); err != nil || n.Version() == v {
		t.Fatalf("resize to the pre-impose share: %v (reached the network: %v)", err, n.Version() != v)
	}
	checkMirror(t, n, b, "resize after impose")

	// A re-route whose re-reserve fails leaves the share unknown: a resize
	// to the old share reaches the released handles and fails.
	c.Release("s1", slice.PLMN{})
	tx.LatencyBudgetMs = 0.01
	if _, cause := c.Reserve(tx); cause == nil {
		t.Fatal("a re-reserve within 0.01 ms succeeded")
	}
	if err := c.ResizePaths(b, 300); err == nil || !strings.Contains(err.Error(), "vanished") {
		t.Fatalf("resize after a failed re-reserve: %v, want the reservation vanished", err)
	}
}

// TestPathShareReleasedAndFaulted: a release forgets the share, so a resize
// to it on the released handles still fails as vanished; and an armed resize
// fault fires on a resize to the share the paths already hold.
func TestPathShareReleasedAndFaulted(t *testing.T) {
	n := shareNet(t)
	c := NewTransportController(n)
	b := new(Binding)
	tx := Tx{Slice: "s1", DataCenter: "dc", Mbps: 100, Binding: b}
	if _, cause := c.Reserve(tx); cause != nil {
		t.Fatal(cause)
	}

	c.InjectFault(Fault{Stage: FaultResize, Remaining: 1})
	if _, err := c.Resize(tx, 100); err == nil {
		t.Fatal("an armed resize fault did not fire on a same-share resize")
	}
	if _, err := c.Resize(tx, 100); err != nil {
		t.Fatalf("same-share resize once the fault is spent: %v", err)
	}

	c.ReleasePaths("s1")
	if b.pathMbps != 0 {
		t.Fatalf("the release left the share %v", b.pathMbps)
	}
	if err := c.ResizePaths(b, 100); err == nil || !strings.Contains(err.Error(), "vanished") {
		t.Fatalf("same-share resize on released paths: %v, want the reservation vanished", err)
	}
}
