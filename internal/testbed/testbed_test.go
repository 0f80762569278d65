package testbed

import (
	"math/rand"
	"testing"

	"repro/internal/transport"
)

func TestDefaultMatchesDemoScale(t *testing.T) {
	tb, err := New(Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tb.RAN.Names()); got != 2 {
		t.Fatalf("eNBs %d, demo had 2", got)
	}
	e, _ := tb.RAN.Get(ENBName(0))
	if e.TotalPRBs() != 100 {
		t.Fatalf("PRBs %d, want 100 (20 MHz)", e.TotalPRBs())
	}
	if got := tb.Region.Names(); len(got) != 2 || got[0] != CoreDC || got[1] != EdgeDC {
		t.Fatalf("DCs %v", got)
	}
	if tb.Ctrl.RAN == nil || tb.Ctrl.Transport == nil || tb.Ctrl.Cloud == nil {
		t.Fatal("controllers not wired")
	}
}

func TestZeroConfigNormalizes(t *testing.T) {
	tb, err := New(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb.RadioCapacityMbps() < 50 {
		t.Fatalf("zero config produced a tiny testbed: %.1f Mbps", tb.RadioCapacityMbps())
	}
	if tb.Config.ENBs != 2 || tb.Config.CoreHosts != 4 {
		t.Fatalf("normalized config %+v", tb.Config)
	}
}

func TestLinkTechnologiesMatchFig2(t *testing.T) {
	tb := MustNew(Default(), nil)
	l, ok := tb.Transport.Link(ENBName(0), Switch)
	if !ok || l.Type != transport.MmWave {
		t.Fatalf("enb-1 uplink %+v", l)
	}
	l, ok = tb.Transport.Link(ENBName(1), Switch)
	if !ok || l.Type != transport.MicroWave {
		t.Fatalf("enb-2 uplink %+v", l)
	}
	l, ok = tb.Transport.Link(Switch, CoreDC)
	if !ok || l.Type != transport.Wired {
		t.Fatalf("core link %+v", l)
	}
}

func TestCoreFartherThanEdge(t *testing.T) {
	tb := MustNew(Default(), nil)
	edge, err := tb.Transport.ShortestPath(transport.PathRequest{From: ENBName(0), To: EdgeDC, MinMbps: 1})
	if err != nil {
		t.Fatal(err)
	}
	core, err := tb.Transport.ShortestPath(transport.PathRequest{From: ENBName(0), To: CoreDC, MinMbps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if core.DelayMs-edge.DelayMs < 3 {
		t.Fatalf("core (%.1f) should be clearly farther than edge (%.1f)", core.DelayMs, edge.DelayMs)
	}
}

func TestRedundantTransportAddsBackupOnly(t *testing.T) {
	plain := MustNew(Default(), nil)
	cfg := Default()
	cfg.RedundantTransport = true
	red := MustNew(cfg, nil)

	if len(plain.Transport.NodesOfKind(transport.KindSwitch)) != 1 {
		t.Fatal("plain testbed has extra switches")
	}
	if len(red.Transport.NodesOfKind(transport.KindSwitch)) != 2 {
		t.Fatal("redundant testbed missing backup switch")
	}
	// Primary shortest paths must be identical.
	for _, dc := range []string{EdgeDC, CoreDC} {
		p1, err := plain.Transport.ShortestPath(transport.PathRequest{From: ENBName(0), To: dc, MinMbps: 1})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := red.Transport.ShortestPath(transport.PathRequest{From: ENBName(0), To: dc, MinMbps: 1})
		if err != nil {
			t.Fatal(err)
		}
		if p1.DelayMs != p2.DelayMs {
			t.Fatalf("backup changed primary delay to %s: %.2f vs %.2f", dc, p1.DelayMs, p2.DelayMs)
		}
	}
	// Backup path must exist when primary switch is cut off.
	red.Transport.SetLinkUp(ENBName(0), Switch, false)
	p, err := red.Transport.ShortestPath(transport.PathRequest{From: ENBName(0), To: CoreDC, MinMbps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops[1] != BackupSwitch {
		t.Fatalf("backup path %v", p.Hops)
	}
}

func TestScaledTestbed(t *testing.T) {
	cfg := Config{ENBs: 6, EdgeHosts: 3, CoreHosts: 8}
	tb := MustNew(cfg, rand.New(rand.NewSource(1)))
	if got := len(tb.RAN.Names()); got != 6 {
		t.Fatalf("eNBs %d", got)
	}
	// Wireless technology alternates.
	mm, uw := 0, 0
	for i := 0; i < 6; i++ {
		l, ok := tb.Transport.Link(ENBName(i), Switch)
		if !ok {
			t.Fatalf("eNB %d not connected", i)
		}
		switch l.Type {
		case transport.MmWave:
			mm++
		case transport.MicroWave:
			uw++
		}
	}
	if mm != 3 || uw != 3 {
		t.Fatalf("technology mix mm=%d µ=%d", mm, uw)
	}
	edge, _ := tb.Region.Get(EdgeDC)
	if edge.Capacity().Hosts != 3 {
		t.Fatalf("edge hosts %d", edge.Capacity().Hosts)
	}
}

func TestNormalizationMakesAnyConfigBuildable(t *testing.T) {
	// Every zero/negative knob is normalized, so any config builds.
	cfgs := []Config{
		{},
		{ENBs: -1},
	}
	for i, cfg := range cfgs {
		if _, err := New(cfg, nil); err != nil {
			t.Fatalf("config %d failed: %v", i, err)
		}
	}
}
