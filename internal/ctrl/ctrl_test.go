package ctrl_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/ctrl"
	"repro/internal/epc"
	"repro/internal/monitor"
	"repro/internal/ran"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/transport"
)

var (
	plmnA = slice.PLMN{MCC: "001", MNC: "01"}
	plmnB = slice.PLMN{MCC: "001", MNC: "02"}
	t0    = time.Date(2018, 8, 20, 9, 0, 0, 0, time.UTC)
)

func newTB(t *testing.T) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.New(testbed.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// The helpers below drive the Domain verbs the engine drives — Reserve and
// Resize with a ctrl.Tx carrying the slice's binding — and read the outcome
// off Grant.Apply, the way the engine records it in a slice's allocation.

// radioReservation is a radio grant's outcome as Apply records it.
type radioReservation struct {
	PRBs      map[string]int // per eNB name
	TotalMbps float64
}

// pathSetup is a transport grant's outcome as Apply records it.
type pathSetup struct {
	PathIDs      []string
	WorstDelayMs float64
}

func reserveRadio(c *ctrl.RANController, b *ctrl.Binding, p slice.PLMN, mbps float64) (radioReservation, error) {
	g, cause := c.Reserve(ctrl.Tx{PLMN: p, Mbps: mbps, Binding: b})
	if cause != nil {
		return radioReservation{}, cause
	}
	return radioOutcome(g), nil
}

func resizeRadio(c *ctrl.RANController, b *ctrl.Binding, mbps float64) (radioReservation, error) {
	g, err := c.Resize(ctrl.Tx{Binding: b}, mbps)
	if err != nil {
		return radioReservation{}, err
	}
	return radioOutcome(g), nil
}

func radioOutcome(g ctrl.Grant) radioReservation {
	var a slice.Allocation
	g.Apply(&a)
	return radioReservation{PRBs: a.PRBs, TotalMbps: a.AllocatedMbps}
}

func reservePaths(c *ctrl.TransportController, b *ctrl.Binding, id slice.ID, dc string, mbps, maxDelayMs float64) (pathSetup, error) {
	g, cause := c.Reserve(ctrl.Tx{Slice: id, DataCenter: dc, Mbps: mbps, LatencyBudgetMs: maxDelayMs, Binding: b})
	if cause != nil {
		return pathSetup{}, cause
	}
	var a slice.Allocation
	g.Apply(&a)
	return pathSetup{PathIDs: a.PathIDs, WorstDelayMs: a.PathLatencyMs}, nil
}

func TestRANReserveSpreadsAcrossENBs(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.RAN
	res, err := reserveRadio(c, new(ctrl.Binding), plmnA, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PRBs) != 2 {
		t.Fatalf("PRBs on %d eNBs", len(res.PRBs))
	}
	if res.TotalMbps < 40 {
		t.Fatalf("reserved %.1f Mbps < asked 40", res.TotalMbps)
	}
	for name, prbs := range res.PRBs {
		e, _ := tb.RAN.Get(name)
		got, ok := e.Reservation(plmnA)
		if !ok || got != prbs {
			t.Fatalf("eNB %s reservation %d vs reported %d", name, got, prbs)
		}
	}
}

func TestRANReserveRollsBackOnPartialFailure(t *testing.T) {
	tb := newTB(t)
	// Saturate the second eNB so reservation succeeds on enb-1 only.
	e2, _ := tb.RAN.Get(testbed.ENBName(1))
	if _, err := e2.Reserve(plmnB, e2.TotalPRBs()); err != nil {
		t.Fatal(err)
	}
	_, err := reserveRadio(tb.Ctrl.RAN, new(ctrl.Binding), plmnA, 40)
	if err == nil {
		t.Fatal("reserve should fail when one eNB is full")
	}
	e1, _ := tb.RAN.Get(testbed.ENBName(0))
	if _, ok := e1.Reservation(plmnA); ok {
		t.Fatal("partial reservation leaked on enb-1")
	}
}

func TestRANResizeRestoresOnFailure(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.RAN
	b := new(ctrl.Binding)
	if _, err := reserveRadio(c, b, plmnA, 20); err != nil {
		t.Fatal(err)
	}
	// Fill the rest of both cells with another tenant, then attempt to
	// grow A beyond free space.
	e1, _ := tb.RAN.Get(testbed.ENBName(0))
	e2, _ := tb.RAN.Get(testbed.ENBName(1))
	e1.Reserve(plmnB, e1.FreePRBs())
	e2.Reserve(plmnB, e2.FreePRBs())
	before1, _ := e1.Reservation(plmnA)
	before2, _ := e2.Reservation(plmnA)
	if _, err := resizeRadio(c, b, 500); err == nil {
		t.Fatal("oversize resize succeeded")
	}
	after1, _ := e1.Reservation(plmnA)
	after2, _ := e2.Reservation(plmnA)
	if after1 != before1 || after2 != before2 {
		t.Fatalf("failed resize mutated reservations: %d/%d -> %d/%d", before1, before2, after1, after2)
	}
}

// TestRANResizeRollsBackCellByCell: only the second cell lacks the room, so
// the first has already moved when the resize fails — the per-cell rollback,
// through the handles, must leave both cells' books exactly as they were.
func TestRANResizeRollsBackCellByCell(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.RAN
	b := new(ctrl.Binding)
	if _, err := reserveRadio(c, b, plmnA, 20); err != nil {
		t.Fatal(err)
	}
	e1, _ := tb.RAN.Get(testbed.ENBName(0))
	e2, _ := tb.RAN.Get(testbed.ENBName(1))
	e2.Reserve(plmnB, e2.FreePRBs())
	before1, before2 := e1.Snapshot(), e2.Snapshot()
	if _, err := resizeRadio(c, b, 60); !errors.Is(err, ran.ErrInsufficientPRBs) {
		t.Fatalf("resize with one full cell: %v", err)
	}
	if after1, after2 := e1.Snapshot(), e2.Snapshot(); !reflect.DeepEqual(before1, after1) || !reflect.DeepEqual(before2, after2) {
		t.Fatalf("failed resize moved the books:\n %+v -> %+v\n %+v -> %+v", before1, after1, before2, after2)
	}
	if msgs := append(e1.AuditConservation(), e2.AuditConservation()...); len(msgs) != 0 {
		t.Fatal(msgs)
	}
}

// TestRANStaleHandleNeverResizes: a cell's reservation is released and made
// again behind the controller's back, so the binding's handle for that cell
// is stale. The resize must fail with ErrUnknownPLMN and move nothing — not
// the cells before the stale one, and never the new reservation. A release
// and a new reservation through the controller heal it.
func TestRANStaleHandleNeverResizes(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.RAN
	b := new(ctrl.Binding)
	if _, err := reserveRadio(c, b, plmnA, 20); err != nil {
		t.Fatal(err)
	}
	e1, _ := tb.RAN.Get(testbed.ENBName(0))
	e2, _ := tb.RAN.Get(testbed.ENBName(1))
	e2.Release(plmnA)
	if _, err := e2.Reserve(plmnA, 7); err != nil {
		t.Fatal(err)
	}
	before1, before2 := e1.Snapshot(), e2.Snapshot()
	if _, err := resizeRadio(c, b, 10); !errors.Is(err, ran.ErrUnknownPLMN) {
		t.Fatalf("resize through a stale handle: %v", err)
	}
	if after1, after2 := e1.Snapshot(), e2.Snapshot(); !reflect.DeepEqual(before1, after1) || !reflect.DeepEqual(before2, after2) {
		t.Fatalf("stale handle moved the books:\n %+v -> %+v\n %+v -> %+v", before1, after1, before2, after2)
	}
	c.ReleaseSlice(plmnA)
	if _, err := resizeRadio(c, b, 10); err == nil {
		t.Fatal("resize of a released slice succeeded")
	}
	if _, err := reserveRadio(c, b, plmnA, 20); err != nil {
		t.Fatal(err)
	}
	if res, err := resizeRadio(c, b, 10); err != nil || res.TotalMbps < 10 {
		t.Fatalf("resize after re-reserve: %+v, %v", res, err)
	}
	// Recovery imposes the recorded per-cell PRBs through the controller,
	// which writes the handles into the binding in the same step.
	c.ReleaseSlice(plmnA)
	if err := c.ImposeSlice(b, plmnA, map[string]int{e1.Name(): 3, e2.Name(): 4}); err != nil {
		t.Fatal(err)
	}
	if got1, _ := e1.Reservation(plmnA); got1 != 3 {
		t.Fatalf("imposed %d PRBs on %s, want 3", got1, e1.Name())
	}
	if res, err := resizeRadio(c, b, 10); err != nil || len(res.PRBs) != 2 {
		t.Fatalf("resize after impose: %+v, %v", res, err)
	}
	if err := c.ImposeResize(b, map[string]int{e1.Name(): 5, e2.Name(): 6}); err != nil {
		t.Fatal(err)
	}
	got1, _ := e1.Reservation(plmnA)
	got2, _ := e2.Reservation(plmnA)
	if got1 != 5 || got2 != 6 {
		t.Fatalf("imposed resize left %d/%d PRBs, want 5/6", got1, got2)
	}
	// A record naming a cell the RAN does not have imposes nothing and binds
	// nothing.
	bB := new(ctrl.Binding)
	if err := c.ImposeSlice(bB, plmnB, map[string]int{e1.Name(): 1, "enb-ghost": 1}); err == nil {
		t.Fatal("impose on an unknown eNB succeeded")
	}
	if _, ok := e1.Reservation(plmnB); ok {
		t.Fatal("failed impose left a reservation behind")
	}
	if len(bB.Cells()) != 0 {
		t.Fatalf("failed impose bound %d cells", len(bB.Cells()))
	}
}

func TestRANResizeUnknownPLMN(t *testing.T) {
	tb := newTB(t)
	if _, err := resizeRadio(tb.Ctrl.RAN, new(ctrl.Binding), 10); err == nil {
		t.Fatal("resize of an unbound slice succeeded")
	}
	if _, err := resizeRadio(tb.Ctrl.RAN, nil, 10); err == nil {
		t.Fatal("resize with no binding succeeded")
	}
}

// TestRANMovesAgreesWithResize: the radio's read-only check answers exactly
// whether the resize it sizes changes a cell's PRBs or the throughput they
// sustain — for targets around the quantum, before and after a fade on one
// cell, and for a slice at the one-PRB minimum whose PRBs the fade keeps but
// whose throughput it cuts — and moves nothing itself. A binding with no
// live cells answers true, so its resize goes ahead and fails as before.
func TestRANMovesAgreesWithResize(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.RAN
	held := func(p slice.PLMN) map[string]int {
		out := map[string]int{}
		for _, e := range tb.RAN.All() {
			if n, ok := e.Reservation(p); ok {
				out[e.Name()] = n
			}
		}
		return out
	}
	check := func(b *ctrl.Binding, p slice.PLMN, was radioReservation, mbps float64) radioReservation {
		t.Helper()
		moves := c.Moves(b, mbps, was.TotalMbps)
		if got := held(p); !maps.Equal(got, was.PRBs) {
			t.Fatalf("asking about %v Mbps moved the cells from %v to %v", mbps, was.PRBs, got)
		}
		now, err := resizeRadio(c, b, mbps)
		if err != nil {
			t.Fatal(err)
		}
		if moved := !maps.Equal(now.PRBs, was.PRBs) || now.TotalMbps != was.TotalMbps; moved != moves {
			t.Fatalf("resize %v -> %v Mbps (%v -> %v PRBs): Moves said %v, the resize moved %v",
				was.TotalMbps, mbps, was.PRBs, now.PRBs, moves, moved)
		}
		return now
	}

	b := new(ctrl.Binding)
	res, err := reserveRadio(c, b, plmnA, 20)
	if err != nil {
		t.Fatal(err)
	}
	small := new(ctrl.Binding)
	tiny, err := reserveRadio(c, small, plmnB, 0.2) // one PRB on each cell
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var moved, still int
	for i := 0; i < 400; i++ {
		if i == 200 {
			tb.RAN.All()[0].SetMeanCQI(9)
		}
		mbps := res.TotalMbps - rng.Float64()*0.5 // within the quantum, mostly
		if i%3 == 0 {
			mbps = 20 + (rng.Float64()-0.5)*6
		}
		now := check(b, plmnA, res, mbps)
		if maps.Equal(now.PRBs, res.PRBs) && now.TotalMbps == res.TotalMbps {
			still++
		} else {
			moved++
		}
		res = now
	}
	if moved == 0 || still == 0 {
		t.Fatalf("%d resizes moved and %d did not: the walk needs both", moved, still)
	}

	// The fade left the minimal slice's PRBs where they were and cut the
	// throughput they sustain: that moves; once recorded, it does not.
	if !c.Moves(small, 0.2, tiny.TotalMbps) {
		t.Fatal("a fade that cut the throughput of unchanged PRBs moved nothing")
	}
	tiny = check(small, plmnB, tiny, 0.2)
	if c.Moves(small, 0.2, tiny.TotalMbps) {
		t.Fatal("a resize to the PRBs and throughput the slice holds moves")
	}

	c.ReleaseSlice(plmnA)
	if !c.Moves(b, res.TotalMbps, res.TotalMbps) || !c.Moves(new(ctrl.Binding), 10, 0) || !c.Moves(nil, 10, 0) {
		t.Fatal("a binding with no live cells answered that nothing moves")
	}
}

func TestRANScheduleEpochAggregates(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.RAN
	res, err := reserveRadio(c, new(ctrl.Binding), plmnA, 40)
	if err != nil {
		t.Fatal(err)
	}
	served, util := c.ScheduleEpoch(map[slice.PLMN]float64{plmnA: 30}, false)
	if served[plmnA] < 29.999 || served[plmnA] > 30.001 {
		t.Fatalf("served %.3f, want 30 (reserved %.1f)", served[plmnA], res.TotalMbps)
	}
	if util <= 0 || util > 1 {
		t.Fatalf("util %.3f", util)
	}
	// Demand above reservation: capped near the reservation.
	served, _ = c.ScheduleEpoch(map[slice.PLMN]float64{plmnA: 500}, false)
	if served[plmnA] > res.TotalMbps+0.001 {
		t.Fatalf("served %.3f above reservation %.3f", served[plmnA], res.TotalMbps)
	}
}

func TestRANReleaseIdempotent(t *testing.T) {
	tb := newTB(t)
	reserveRadio(tb.Ctrl.RAN, new(ctrl.Binding), plmnA, 20)
	tb.Ctrl.RAN.ReleaseSlice(plmnA)
	tb.Ctrl.RAN.ReleaseSlice(plmnA)
	if tb.Ctrl.RAN.Utilization() != 0 {
		t.Fatal("release left PRBs reserved")
	}
}

func TestTransportSetupPathsBothENBs(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.Transport
	setup, err := reservePaths(c, new(ctrl.Binding), "s1", testbed.EdgeDC, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(setup.PathIDs) != 2 {
		t.Fatalf("paths %v", setup.PathIDs)
	}
	if setup.WorstDelayMs <= 0 || setup.WorstDelayMs > 5 {
		t.Fatalf("worst delay %.2f", setup.WorstDelayMs)
	}
	// Both eNBs' paths run through the programmable switch, and each names
	// its slice.
	for _, pid := range setup.PathIDs {
		r, ok := tb.Transport.Reservation(pid)
		if !ok || !slices.Contains(r.Hops, testbed.Switch) {
			t.Fatalf("path %s hops %v miss %s", pid, r.Hops, testbed.Switch)
		}
		if owner := ctrl.OwnerOf(pid); owner != "s1" {
			t.Fatalf("path %s is owned by %q, want s1", pid, owner)
		}
	}
}

func TestTransportSetupRollsBack(t *testing.T) {
	tb := newTB(t)
	// Saturate the µWave link (enb-2 side) so the second path fails.
	if _, err := tb.Transport.Reserve("filler", []string{testbed.ENBName(1), testbed.Switch}, tb.Config.MicroWaveMbps); err != nil {
		t.Fatal(err)
	}
	_, err := reservePaths(tb.Ctrl.Transport, new(ctrl.Binding), "s1", testbed.CoreDC, 300, 0)
	if err == nil {
		t.Fatal("setup should fail with saturated µWave hop")
	}
	l, _ := tb.Transport.Link(testbed.ENBName(0), testbed.Switch)
	if l.ReservedMbps() != 0 {
		t.Fatalf("mmWave hop leaked %.1f Mbps", l.ReservedMbps())
	}
}

func TestTransportDelayBudgetForcesEdge(t *testing.T) {
	tb := newTB(t)
	// Core sits the testbed's 6 ms core delay + a hop away: a 3 ms budget
	// must fail to core and pass to edge.
	if _, err := reservePaths(tb.Ctrl.Transport, new(ctrl.Binding), "s1", testbed.CoreDC, 10, 3); err == nil {
		t.Fatal("core within 3ms should be infeasible")
	}
	if _, err := reservePaths(tb.Ctrl.Transport, new(ctrl.Binding), "s2", testbed.EdgeDC, 10, 3); err != nil {
		t.Fatalf("edge within 3ms failed: %v", err)
	}
}

func TestTransportResizeAndRelease(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.Transport
	b := new(ctrl.Binding)
	setup, err := reservePaths(c, b, "s1", testbed.EdgeDC, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ResizePaths(b, 300); err != nil {
		t.Fatal(err)
	}
	r, _ := tb.Transport.Reservation(setup.PathIDs[0])
	if r.Mbps != 150 {
		t.Fatalf("per-path after resize %.1f, want 150", r.Mbps)
	}
	c.ReleasePaths("s1")
	if _, ok := tb.Transport.Reservation(setup.PathIDs[0]); ok {
		t.Fatal("path survived release")
	}
	if err := c.ResizePaths(b, 100); err == nil {
		t.Fatal("resize after release succeeded")
	}
	c.ReleasePaths("s1") // idempotent
}

func TestTransportResizeRestoresOnFailure(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.Transport
	b := new(ctrl.Binding)
	if _, err := reservePaths(c, b, "s1", testbed.CoreDC, 100, 0); err != nil {
		t.Fatal(err)
	}
	// Saturate µWave so growing s1 fails on the enb-2 path.
	free := tb.Config.MicroWaveMbps - 50
	if _, err := tb.Transport.Reserve("filler", []string{testbed.ENBName(1), testbed.Switch}, free); err != nil {
		t.Fatal(err)
	}
	if err := c.ResizePaths(b, 700); err == nil {
		t.Fatal("oversize resize succeeded")
	}
	r, _ := tb.Transport.Reservation("s1/" + testbed.ENBName(0) + "->" + testbed.CoreDC)
	if r.Mbps != 50 {
		t.Fatalf("path size after failed resize %.1f, want 50", r.Mbps)
	}
}

// TestTransportImposePaths: recovery's verb reserves the recorded hops at the
// recorded bandwidth and writes the handles into the binding, so an imposed
// slice resizes and releases like an installed one; a record that does not
// fit imposes and binds nothing.
func TestTransportImposePaths(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.Transport
	setup, err := reservePaths(c, new(ctrl.Binding), "s1", testbed.EdgeDC, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var logged []transport.Reservation
	for _, pid := range setup.PathIDs {
		r, _ := tb.Transport.Reservation(pid)
		logged = append(logged, r)
	}
	c.ReleasePaths("s1")
	b := new(ctrl.Binding)
	if err := c.ImposePaths(b, "s1", logged); err != nil {
		t.Fatal(err)
	}
	if got := tb.Transport.Reservations(); !reflect.DeepEqual(got, logged) {
		t.Fatalf("imposed %+v, want %+v", got, logged)
	}
	if err := c.ResizePaths(b, 300); err != nil {
		t.Fatalf("resize after impose: %v", err)
	}
	c.ReleasePaths("s1")
	if got := tb.Transport.Reservations(); len(got) != 0 {
		t.Fatalf("release after impose left %+v", got)
	}
	logged[1].Mbps = 1e9
	failed := new(ctrl.Binding)
	if err := c.ImposePaths(failed, "s1", logged); err == nil {
		t.Fatal("oversize impose succeeded")
	}
	if got := tb.Transport.Reservations(); len(got) != 0 {
		t.Fatalf("failed impose left %+v", got)
	}
	if err := c.ResizePaths(failed, 100); err == nil {
		t.Fatal("failed impose bound handles")
	}
}

func TestTransportFeasibleDelay(t *testing.T) {
	tb := newTB(t)
	edge, err := tb.Ctrl.Transport.FeasibleDelay(testbed.EdgeDC, 50)
	if err != nil {
		t.Fatal(err)
	}
	core, err := tb.Ctrl.Transport.FeasibleDelay(testbed.CoreDC, 50)
	if err != nil {
		t.Fatal(err)
	}
	if edge >= core {
		t.Fatalf("edge delay %.2f not below core %.2f", edge, core)
	}
	if _, err := tb.Ctrl.Transport.FeasibleDelay(testbed.CoreDC, 1e6); err == nil {
		t.Fatal("absurd bandwidth feasible")
	}
}

func TestCloudDeployAndTeardown(t *testing.T) {
	tb := newTB(t)
	c := tb.Ctrl.Cloud
	if !c.CanFit(testbed.EdgeDC, 30) {
		t.Fatal("edge cannot fit a small vEPC")
	}
	dep, err := c.DeployEPC("s1", testbed.EdgeDC, plmnA, 30, slice.ClassAutomotive)
	if err != nil {
		t.Fatal(err)
	}
	if dep.DataCenter != testbed.EdgeDC || ctrl.OwnerOf(dep.StackID) != "s1" || ctrl.OwnerOf(dep.EPCID) != "s1" {
		t.Fatalf("deployment %+v", dep)
	}
	if dep.BootDelay < 2*time.Second {
		t.Fatalf("boot delay %v", dep.BootDelay)
	}
	in, ok := c.EPCs().Get(dep.EPCID)
	if !ok || in.State() != epc.StateDeploying {
		t.Fatal("EPC not registered as deploying")
	}
	if err := c.MarkEPCRunning(dep.EPCID, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EPCs().Attach(epc.UE{IMSI: "i1", PLMN: plmnA}, t0); err != nil {
		t.Fatalf("attach after running: %v", err)
	}
	c.Teardown(dep.DataCenter, dep.StackID, dep.EPCID)
	dc, _ := tb.Region.Get(testbed.EdgeDC)
	if got := dc.Capacity().UsedVCPUs; got != 0 {
		t.Fatalf("teardown leaked %.1f vCPUs", got)
	}
	c.Teardown(dep.DataCenter, dep.StackID, dep.EPCID) // idempotent
}

func TestCloudDeployUnknownDC(t *testing.T) {
	tb := newTB(t)
	if _, err := tb.Ctrl.Cloud.DeployEPC("s1", "nowhere", plmnA, 30, slice.ClassEMBB); err == nil {
		t.Fatal("unknown DC accepted")
	}
	if tb.Ctrl.Cloud.CanFit("nowhere", 30) {
		t.Fatal("unknown DC fits")
	}
}

func TestCloudDeployNoCapacity(t *testing.T) {
	tb := testbed.MustNew(testbed.Config{EdgeHosts: 1}, nil)
	// A one-host edge takes a few small vEPCs and then no more.
	n := 0
	for ; tb.Ctrl.Cloud.CanFit(testbed.EdgeDC, 10); n++ {
		if n == 16 {
			t.Fatal("a one-host edge fits 16 vEPCs")
		}
		if _, err := tb.Ctrl.Cloud.DeployEPC(slice.ID(fmt.Sprintf("s%d", n)), testbed.EdgeDC, plmnA, 10, slice.ClassEMBB); err != nil {
			t.Fatalf("deploy %d that CanFit passed: %v", n, err)
		}
	}
	if n == 0 {
		t.Fatal("an empty edge host fits no vEPC")
	}
	if _, err := tb.Ctrl.Cloud.DeployEPC("full", testbed.EdgeDC, plmnA, 10, slice.ClassEMBB); err == nil {
		t.Fatal("deploy into full edge succeeded")
	}
}

// TestCloudFeasibleAgreesWithReserve: on the default testbed, filled by a
// random history of stack creates and deletes in both data centers, the
// cloud domain's admission dry run passes exactly when its Reserve installs
// the vEPC, for every vEPC size.
func TestCloudFeasibleAgreesWithReserve(t *testing.T) {
	flavors := []cloud.Flavor{cloud.FlavorSmall, cloud.FlavorMedium, cloud.FlavorLarge}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := testbed.MustNew(testbed.Default(), nil)
		c := tb.Ctrl.Cloud
		type stack struct {
			dc *cloud.DataCenter
			id string
		}
		var live []stack
		for step := 0; step < 150; step++ {
			for _, dc := range []string{testbed.EdgeDC, testbed.CoreDC} {
				for _, mbps := range []float64{10, 80, 200} {
					tx := ctrl.Tx{Slice: "probe", PLMN: plmnA, SLA: slice.SLA{ThroughputMbps: mbps}, DataCenter: dc, Binding: new(ctrl.Binding)}
					feasible := c.Feasible(tx) == nil
					g, cause := c.Reserve(tx)
					if feasible != (cause == nil) {
						t.Fatalf("seed %d step %d, %s at %.0f Mbps: Feasible %v, Reserve %v", seed, step, dc, mbps, feasible, cause)
					}
					if g != nil {
						c.Abort(g)
					}
				}
			}
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				live[k].dc.DeleteStack(live[k].id)
				live = append(live[:k], live[k+1:]...)
				continue
			}
			dc := tb.Region.All()[rng.Intn(2)]
			var tmpl cloud.Template
			vms := 1 + rng.Intn(3)
			for r := 0; r < vms; r++ {
				tmpl.Resources = append(tmpl.Resources, cloud.TemplateResource{Name: fmt.Sprintf("r%d", r), Flavor: flavors[rng.Intn(len(flavors))]})
			}
			id := fmt.Sprintf("fill-%d", step)
			if _, err := dc.CreateStack(id, tmpl); err == nil {
				live = append(live, stack{dc, id})
			}
		}
	}
}

// TestAbortTwiceFreesOnlyItsOwn: a slice reserved on all four domains and
// aborted twice, grant by grant, leaves every substrate's books conserved and
// empty; a second slice reserved afterwards on the same PLMN, with its own
// binding, keeps all of its reservations through a third, stale round of the
// first slice's aborts.
func TestAbortTwiceFreesOnlyItsOwn(t *testing.T) {
	tb := testbed.MustNew(testbed.Config{MECHosts: 1, MECHostCPUs: 8}, nil)
	domains := []ctrl.Domain{tb.Ctrl.RAN, tb.Ctrl.Transport, tb.Ctrl.Cloud, tb.Ctrl.Extra[0]}
	reserve := func(id slice.ID) ([]ctrl.Grant, slice.Allocation) {
		tx := ctrl.Tx{Slice: id, PLMN: plmnA, DataCenter: testbed.CoreDC, Mbps: 20, LatencyBudgetMs: 40,
			SLA:     slice.SLA{ThroughputMbps: 20, MaxLatencyMs: 50, Duration: time.Hour, Class: slice.ClassEMBB},
			Binding: new(ctrl.Binding)}
		var gs []ctrl.Grant
		var a slice.Allocation
		for _, d := range domains {
			g, cause := d.Reserve(tx)
			if cause != nil {
				t.Fatalf("%s reserve for %s: %v", d.Domain(), id, cause)
			}
			g.Apply(&a)
			gs = append(gs, g)
		}
		return gs, a
	}
	abortAll := func(gs []ctrl.Grant) {
		for i := len(gs) - 1; i >= 0; i-- {
			domains[i].Abort(gs[i])
		}
	}
	audit := func() {
		t.Helper()
		var vs []string
		for _, e := range tb.RAN.All() {
			vs = append(vs, e.AuditConservation()...)
		}
		vs = append(vs, tb.Transport.AuditConservation()...)
		for _, dc := range tb.Region.All() {
			vs = append(vs, dc.AuditConservation()...)
		}
		vs = append(vs, tb.MEC.AuditConservation()...)
		if len(vs) != 0 {
			t.Fatalf("conservation: %v", vs)
		}
	}

	first, _ := reserve("s-1")
	abortAll(first)
	abortAll(first)
	audit()
	if tb.Ctrl.RAN.Utilization() != 0 || len(tb.Transport.Reservations()) != 0 ||
		tb.Ctrl.Cloud.Utilization() != 0 || len(tb.MEC.Apps()) != 0 {
		t.Fatal("aborted slice left resources behind")
	}

	_, a := reserve("s-2")
	abortAll(first)
	audit()
	for name, prbs := range a.PRBs {
		e, _ := tb.RAN.Get(name)
		if got, ok := e.Reservation(plmnA); !ok || got != prbs {
			t.Fatalf("s-2 holds %d PRBs on %s (ok %v), want %d", got, name, ok, prbs)
		}
	}
	for _, pid := range a.PathIDs {
		if _, ok := tb.Transport.Reservation(pid); !ok {
			t.Fatalf("s-2 lost path %s", pid)
		}
	}
	dc, _ := tb.Region.Get(a.DataCenter)
	if _, ok := dc.Stack(a.StackID); !ok {
		t.Fatalf("s-2 lost stack %s", a.StackID)
	}
	if _, ok := tb.Ctrl.Cloud.EPCs().Get(a.EPCID); !ok {
		t.Fatalf("s-2 lost vEPC %s", a.EPCID)
	}
	if _, ok := tb.MEC.App(a.MECAppID); !ok {
		t.Fatalf("s-2 lost MEC app %s", a.MECAppID)
	}
}

func TestCloudMarkRunningUnknown(t *testing.T) {
	tb := newTB(t)
	if err := tb.Ctrl.Cloud.MarkEPCRunning("ghost", t0); err == nil {
		t.Fatal("unknown EPC marked running")
	}
}

func TestSetTelemetryPushesAllDomains(t *testing.T) {
	tb := newTB(t)
	store := monitor.NewStore(32)
	reserveRadio(tb.Ctrl.RAN, new(ctrl.Binding), plmnA, 40)
	reservePaths(tb.Ctrl.Transport, new(ctrl.Binding), "s1", testbed.EdgeDC, 100, 0)
	tb.Ctrl.Cloud.DeployEPC("s1", testbed.EdgeDC, plmnA, 30, slice.ClassEMBB)
	tb.Ctrl.PushTelemetry(store, t0)
	snap := store.Snapshot()
	for _, key := range []string{
		monitor.DomainMetric("ran", "utilization"),
		monitor.DomainMetric("transport", "utilization"),
		monitor.DomainMetric("cloud", "utilization"),
	} {
		v, ok := snap[key]
		if !ok {
			t.Fatalf("metric %s missing: %v", key, snap)
		}
		if v <= 0 {
			t.Fatalf("metric %s = %v, want > 0", key, v)
		}
	}
}

func TestSetAllOrdered(t *testing.T) {
	tb := newTB(t)
	all := tb.Ctrl.All()
	if len(all) != 3 {
		t.Fatalf("%d controllers", len(all))
	}
	if all[0].Domain() != "cloud" || all[1].Domain() != "ran" || all[2].Domain() != "transport" {
		t.Fatalf("order %s %s %s", all[0].Domain(), all[1].Domain(), all[2].Domain())
	}
}

func TestControllerInterfaceCompliance(t *testing.T) {
	var _ ctrl.Controller = (*ctrl.RANController)(nil)
	var _ ctrl.Controller = (*ctrl.TransportController)(nil)
	var _ ctrl.Controller = (*ctrl.CloudController)(nil)
}

func TestTestbedShape(t *testing.T) {
	tb := newTB(t)
	if got := len(tb.RAN.Names()); got != 2 {
		t.Fatalf("eNBs %d", got)
	}
	if got := tb.Transport.NodesOfKind(transport.KindDC); len(got) != 2 {
		t.Fatalf("DCs %v", got)
	}
	if tb.RadioCapacityMbps() <= 0 {
		t.Fatal("no radio capacity")
	}
	want := 0.0
	for _, e := range tb.RAN.All() {
		want += e.CapacityMbps()
	}
	if got := tb.Ctrl.RAN.CapacityMbps(); math.Abs(got-want) > 1e-9 || got != tb.RadioCapacityMbps() {
		t.Fatalf("total capacity %v, want %v (testbed says %v)", got, want, tb.RadioCapacityMbps())
	}
	if _, ok := tb.Region.Get(testbed.CoreDC); !ok {
		t.Fatal("core DC missing")
	}
	// Edge must be cheaper in delay than core from every eNB.
	for i := 0; i < 2; i++ {
		pe, err := tb.Transport.ShortestPath(transport.PathRequest{From: testbed.ENBName(i), To: testbed.EdgeDC, MinMbps: 1})
		if err != nil {
			t.Fatal(err)
		}
		pc, err := tb.Transport.ShortestPath(transport.PathRequest{From: testbed.ENBName(i), To: testbed.CoreDC, MinMbps: 1})
		if err != nil {
			t.Fatal(err)
		}
		if pe.DelayMs >= pc.DelayMs {
			t.Fatalf("edge %0.2f >= core %0.2f from %s", pe.DelayMs, pc.DelayMs, testbed.ENBName(i))
		}
	}
}

func TestTestbedScalesENBs(t *testing.T) {
	tb := testbed.MustNew(testbed.Config{ENBs: 4}, nil)
	if got := len(tb.RAN.Names()); got != 4 {
		t.Fatalf("eNBs %d", got)
	}
	if got := len(tb.Transport.NodesOfKind(transport.KindENB)); got != 4 {
		t.Fatalf("transport eNB nodes %d", got)
	}
}
