// Package ctrl implements the hierarchical domain controllers of the demo:
// "Our end-to-end orchestration solution is hierarchically placed on top of
// three controllers separately managing the radio, transport and core
// network domains. The controllers dynamically issue resource assignments
// as well as implement monitoring activities on the respective resources
// utilization."
//
// Each controller wraps its substrate, exposes the reserve/resize/release
// primitives the orchestrator drives, and pushes utilization telemetry into
// a monitor.Store — the "gathered monitoring information promptly fed to
// the end-to-end orchestrator". Beyond the three controllers of the demo,
// every controller also implements the uniform transactional Domain surface
// (domain.go) the orchestrator's generic engine drives, and additional
// domains (the MEC compute controller) plug in through Set.Extra without
// touching the core.
//
// All controller methods are safe for concurrent use: the sharded
// orchestrator core installs independent slices in parallel (within one
// request it reserves the cloud deployment first, then the radio/transport
// chain, one domain at a time), so every reserve/resize/release primitive
// synchronizes on its substrate's internal locks, and hot read paths (path
// feasibility, slice path lookups, utilization) take shared read locks.
// Multi-step verbs (the radio Reserve across eNBs, the transport Reserve
// across paths) are all-or-nothing per call but not atomic against
// concurrent callers — the orchestrator's capacity ledger and shard
// serialization provide admission-level consistency above them.
//
// The controllers are the only door to their substrates: they resolve a
// slice's per-cell and per-path handles when the reservation is made — by
// Reserve on the live path, by the Impose* verbs when crash recovery replays
// a logged outcome — and write them into the slice's Binding, which the
// orchestrator hands back in every Tx of the slice; every later resize and
// the epoch's scheduling pass go through those handles (DESIGN.md §10).
package ctrl

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/epc"
	"repro/internal/mec"
	"repro/internal/monitor"
	"repro/internal/ran"
	"repro/internal/slice"
	"repro/internal/transport"
)

// Controller is the common surface of the three domain controllers.
type Controller interface {
	// Domain names the managed domain: "ran", "transport" or "cloud".
	Domain() string
	// Utilization reports the domain's primary-resource utilization [0,1].
	Utilization() float64
	// PushTelemetry records domain metrics into the store at time now.
	PushTelemetry(store *monitor.Store, now time.Time)
}

// telemetry is a controller's domain series, resolved once per store. A
// controller's series names are fixed once it is built (it takes its cell
// and data-center lists in its constructor), so only its first push into a
// store builds them; every later push appends through the handles and
// allocates nothing.
type telemetry struct {
	mu     sync.Mutex
	store  *monitor.Store
	series []*monitor.Series
}

// in returns store's series for the names names() builds, index-aligned
// with them, resolving them on the first push into store.
func (t *telemetry) in(store *monitor.Store, names func() []string) []*monitor.Series {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.store != store {
		ns := names()
		ss := make([]*monitor.Series, len(ns))
		for i, n := range ns {
			ss[i] = store.Series(n)
		}
		t.store, t.series = store, ss
	}
	return t.series
}

// Binding is one slice's substrate handles — its per-cell ran.Handle set and
// its *transport.Reservation path handles — and what each domain's last
// Reserve or Resize granted. The step that makes the reservations writes it
// — Reserve, or ImposeSlice / ImposePaths when recovery replays a logged
// outcome — and every resize, abort and the epoch's scheduling pass read it,
// so none names the slice. Each domain's Grant is a view of it (domain.go).
// It reaches the controllers in Tx and is opaque outside this package: the
// orchestrator keeps one per slice, guarded by the slice's shard lock or
// owned by its install before registration, and passes it through
// untouched. A handle in it dies with its reservation; a dead handle
// resizes, schedules and releases nothing, so a binding that outlives its
// slice's resources is harmless.
type Binding struct {
	id    slice.ID
	cells []ran.Handle
	// prbs is the PRBs held per cell, index-aligned with cells, and
	// radioMbps the throughput they sustain at the mean CQI. prbsMoved is set
	// when prbs change and cleared when a radio grant writes them into an
	// allocation, so a resize that moves no cell writes no PRB map.
	prbs      []int
	radioMbps float64
	prbsMoved bool
	paths     []*transport.Reservation
	// pathMbps is the share every path in paths was last sized to — set by a
	// reserve, an impose or a resize that succeeded, 0 (unknown) from the
	// start of a reserve or impose and after a release — so a resize to it
	// moves nothing and skips the network.
	pathMbps float64
	// worstDelayMs is the largest path delay — the number checked against
	// the slice's latency budget.
	worstDelayMs float64
	dep          Deployment
	app          mec.App
}

// Cells returns the slice's per-cell radio handles. Read-only.
//
// Kept: core's TestBindingTracksSubstrate compares it with the substrate.
func (b *Binding) Cells() []ran.Handle { return b.cells }

// Paths returns the slice's transport path handles, in eNB order. Read-only.
//
// Kept: core's TestBindingTracksSubstrate compares it with the substrate.
func (b *Binding) Paths() []*transport.Reservation { return b.paths }

// RANController manages the radio domain: PLMN-keyed PRB reservations
// spread across all eNBs (the slice's UEs camp on both testbed cells).
// The embedded FaultArm makes it a ctrl.FaultInjector for chaos programs.
// It keeps no per-slice index: a slice's cell handles live in its Binding,
// and a release is name-keyed over the cells.
type RANController struct {
	FaultArm
	// cells is the RAN's eNB list sorted by name, taken once: the cell set
	// is complete before the controller is built and never changes after.
	cells []*ran.ENB

	// cellDemand (the per-cell demand share) and bound (the bindings' cell
	// handle lists) are ScheduleDense's working state, reused across epochs
	// under schedMu.
	schedMu    sync.Mutex
	cellDemand []float64
	bound      [][]ran.Handle

	tel telemetry
}

// Cells returns the eNBs sorted by name. The returned slice is shared and
// must be treated as read-only.
func (c *RANController) Cells() []*ran.ENB { return c.cells }

// NewRANController wraps the RAN, whose cells must all be added already.
func NewRANController(net *ran.Network) *RANController {
	return &RANController{cells: net.All()}
}

// Domain implements Controller.
func (c *RANController) Domain() string { return "ran" }

// CapacityMbps is the total mean-CQI radio capacity: every cell's capacity
// summed in cell order. It is the one place the sum is taken — admission's
// cap, the gain report and the testbed's figure all call it, so they agree
// to the bit.
func (c *RANController) CapacityMbps() float64 {
	sum := 0.0
	for _, e := range c.Cells() {
		sum += e.CapacityMbps()
	}
	return sum
}

// reserveCells reserves PRBs for mbps of aggregate throughput, split evenly
// across eNBs, and writes the cell handles, the PRBs and the throughput they
// sustain into b. On any per-eNB failure everything is rolled back and b is
// left as it was, so the radio domain never holds a partial slice.
func (c *RANController) reserveCells(p slice.PLMN, mbps float64, b *Binding) error {
	enbs := c.Cells()
	if len(enbs) == 0 {
		return errors.New("ctrl: RAN has no eNBs")
	}
	share := mbps / float64(len(enbs))
	total := 0.0
	cells := make([]ran.Handle, 0, len(enbs))
	prbs := make([]int, 0, len(enbs))
	for _, e := range enbs {
		h, n, granted, err := e.ReserveThroughput(p, share)
		if err != nil {
			for _, h := range cells {
				h.Release()
			}
			return fmt.Errorf("ctrl: radio reserve on %s: %w", e.Name(), err)
		}
		cells = append(cells, h)
		prbs = append(prbs, n)
		total += granted
	}
	b.cells, b.prbs, b.radioMbps, b.prbsMoved = cells, prbs, total, true
	return nil
}

// ImposeSlice re-creates a slice's logged radio outcome for crash recovery:
// the recorded PRBs per eNB name, reserved in cell order with no sizing, and
// the handles and PRBs written into b in the same step — so an imposed slice
// resizes, schedules and releases exactly like one Reserve installed.
func (c *RANController) ImposeSlice(b *Binding, p slice.PLMN, prbs map[string]int) error {
	cells := make([]ran.Handle, 0, len(prbs))
	sizes := make([]int, 0, len(prbs))
	undo := func() {
		for _, h := range cells {
			h.Release()
		}
	}
	for _, e := range c.Cells() {
		n, ok := prbs[e.Name()]
		if !ok {
			continue
		}
		h, err := e.Reserve(p, n)
		if err != nil {
			undo()
			return fmt.Errorf("ctrl: radio impose on %s: %w", e.Name(), err)
		}
		cells = append(cells, h)
		sizes = append(sizes, n)
	}
	if len(cells) != len(prbs) {
		undo()
		return fmt.Errorf("ctrl: radio impose for %s names an unknown eNB", p)
	}
	b.cells, b.prbs, b.prbsMoved = cells, sizes, true
	return nil
}

// ImposeResize moves a slice's cells to the recorded PRBs per eNB name — a
// logged resize outcome replayed through the handles in b, with no sizing.
func (c *RANController) ImposeResize(b *Binding, prbs map[string]int) error {
	resized := 0
	for i, h := range b.cells {
		n, ok := prbs[h.Cell().Name()]
		if !ok {
			continue
		}
		if err := h.Resize(n); err != nil {
			return fmt.Errorf("ctrl: radio resize on %s: %w", h.Cell().Name(), err)
		}
		b.prbsMoved = b.prbsMoved || b.prbs[i] != n
		b.prbs[i] = n
		resized++
	}
	if resized != len(prbs) {
		return errors.New("ctrl: radio resize names a cell the slice holds no reservation on")
	}
	return nil
}

// resizeCells adjusts the reservations bound in b for a new aggregate
// throughput and writes the new PRBs and the throughput they sustain into b,
// marking b's PRBs moved when any cell's did. Each cell is visited once,
// through its handle, under one acquisition of its mutex; a failure on one
// eNB restores the previous sizes everywhere, in the cells and in b. Those
// live in a small stack buffer at common cell counts.
func (c *RANController) resizeCells(b *Binding, mbps float64) error {
	if b == nil || len(b.cells) == 0 {
		return errors.New("ctrl: resize: no radio reservation bound")
	}
	cells := b.cells
	share := mbps / float64(len(cells))
	var prevBuf [8]int
	prev := prevBuf[:0]
	total := 0.0
	moved := false
	for i, h := range cells {
		was, prbs, granted, err := h.ResizeThroughput(share)
		if err != nil {
			for j := 0; j < i; j++ {
				cells[j].Resize(prev[j])
				b.prbs[j] = prev[j]
			}
			return fmt.Errorf("ctrl: radio resize on %s: %w", h.Cell().Name(), err)
		}
		prev = append(prev, was)
		moved = moved || prbs != was
		b.prbs[i] = prbs
		total += granted
	}
	b.radioMbps = total
	b.prbsMoved = b.prbsMoved || moved
	return nil
}

// ReleaseSlice drops the PLMN from every eNB, which kills the handles a
// binding holds for it. Idempotent.
func (c *RANController) ReleaseSlice(p slice.PLMN) {
	for _, e := range c.Cells() {
		e.Release(p)
	}
}

// ScheduleDense distributes per-slice demand evenly over the eNBs, runs each
// cell's scheduler and writes the summed served throughput of the slice bound
// by binds[i] to served[i] (index-aligned with demand; len(served) must equal
// len(binds)). Each cell finds its load through the handles naming it, so
// nothing is looked up by name; a binding whose handles are dead is served
// nothing. It returns the mean cell utilization.
//
// It is the serial heart of the control epoch (core's phase P2): the
// orchestrator calls it exactly once per epoch with arrays it reuses across
// epochs, before the per-slice forecast/provision pass that reads served.
// Every slice's UEs camp on all cells, so the per-cell demand share is
// computed once and read by every cell. Served throughput is summed per
// slice across cells in cell order and each cell accumulates its PRB sums in
// reservation order — the summation orders of the name-addressed pass
// (ScheduleEpoch), so fixed-seed runs keep their float bits.
func (c *RANController) ScheduleDense(binds []*Binding, demand, served []float64, shareUnused bool) float64 {
	enbs := c.Cells()
	clear(served)
	if len(enbs) == 0 {
		return 0
	}
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	c.cellDemand = c.cellDemand[:0]
	for _, d := range demand {
		c.cellDemand = append(c.cellDemand, d/float64(len(enbs)))
	}
	c.bound = c.bound[:0]
	for _, b := range binds {
		c.bound = append(c.bound, b.cells)
	}
	utilSum := 0.0
	for _, e := range enbs {
		utilSum += e.ScheduleBound(c.bound, c.cellDemand, served, shareUnused)
	}
	clear(c.bound) // hold no reservation records past the pass
	return utilSum / float64(len(enbs))
}

// ScheduleEpoch is the map-typed adapter: it returns the summed served
// throughput of every PLMN in demand (0 for a PLMN no cell holds a
// reservation for) plus the mean cell utilization. Each cell walks its own
// reservation list for the PLMNs in demand (ENB.ScheduleIndexed) and runs the
// same pass as ScheduleDense, with the same summation orders.
func (c *RANController) ScheduleEpoch(demand map[slice.PLMN]float64, shareUnused bool) (map[slice.PLMN]float64, float64) {
	enbs := c.Cells()
	index := make(map[slice.PLMN]int, len(demand))
	offered := make([]float64, 0, len(demand))
	for p, d := range demand {
		index[p] = len(offered)
		offered = append(offered, d/float64(len(enbs)))
	}
	delivered := make([]float64, len(offered))
	utilSum := 0.0
	for _, e := range enbs {
		utilSum += e.ScheduleIndexed(index, offered, delivered, shareUnused)
	}
	served := make(map[slice.PLMN]float64, len(index))
	for p, i := range index {
		served[p] = delivered[i]
	}
	if len(enbs) == 0 {
		return served, 0
	}
	return served, utilSum / float64(len(enbs))
}

// Utilization implements Controller (mean reserved-PRB fraction).
func (c *RANController) Utilization() float64 {
	enbs := c.Cells()
	if len(enbs) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range enbs {
		sum += e.Utilization()
	}
	return sum / float64(len(enbs))
}

// PushTelemetry implements Controller.
func (c *RANController) PushTelemetry(store *monitor.Store, now time.Time) {
	ss := c.tel.in(store, func() []string {
		names := []string{monitor.DomainMetric("ran", "utilization")}
		for _, e := range c.cells {
			names = append(names, monitor.DomainMetric("ran", e.Name()+"/free_prbs"))
		}
		return names
	})
	ss[0].Add(now, c.Utilization())
	for i, e := range c.cells {
		ss[1+i].Add(now, float64(e.FreePRBs()))
	}
}

// TransportController manages path setup between the eNBs and the data
// centers through the programmable switches.
type TransportController struct {
	FaultArm
	net *transport.Network

	// bySlice serves the name-keyed release (Domain.Release, Abort): each
	// slice's Binding, stored by Reserve and ImposePaths and deleted by the
	// release, which frees the paths it holds and forgets their share.
	// Resizes read the binding and never this map.
	mu      sync.Mutex
	bySlice map[slice.ID]*Binding

	// enbs is the sorted eNB transport-port list, taken once: the topology
	// is complete before the controller is built and never changes after.
	enbs []string

	tel telemetry
}

// NewTransportController wraps the transport network, whose nodes must all
// be added already.
func NewTransportController(net *transport.Network) *TransportController {
	return &TransportController{net: net, bySlice: make(map[slice.ID]*Binding),
		enbs: net.NodesOfKind(transport.KindENB)}
}

// Domain implements Controller.
func (c *TransportController) Domain() string { return "transport" }

// reservePaths reserves one path from every eNB transport port to the chosen
// data-center gateway, each sized to the eNB's share of the slice
// throughput, and writes the slice, the path handles, their share and the
// worst path delay into b.
// All-or-nothing: on failure b holds the paths it held before, their share
// unknown.
func (c *TransportController) reservePaths(id slice.ID, dc string, mbps, maxDelayMs float64, b *Binding) error {
	b.pathMbps = 0
	if len(c.enbs) == 0 {
		return errors.New("ctrl: transport has no eNB nodes")
	}
	share := mbps / float64(len(c.enbs))
	worst := 0.0
	paths := make([]*transport.Reservation, 0, len(c.enbs))
	for _, enb := range c.enbs {
		pid := string(id) + "/" + enb + "->" + dc
		r, err := c.net.ReservePath(pid, transport.PathRequest{
			From: enb, To: dc, MinMbps: share, MaxDelayMs: maxDelayMs,
		})
		if err != nil {
			c.net.ReleaseEach(paths) // roll back: all paths or none
			return fmt.Errorf("ctrl: path %s->%s: %w", enb, dc, err)
		}
		paths = append(paths, r)
		worst = max(worst, r.DelayMs)
	}
	b.id, b.paths, b.pathMbps, b.worstDelayMs = id, paths, share, worst
	c.mu.Lock()
	c.bySlice[id] = b
	c.mu.Unlock()
	return nil
}

// ResizePaths changes every path bound in b to the new aggregate bandwidth,
// through the handles and by no name. A share the paths already hold moves
// nothing and returns at once, without the network's lock. On failure,
// previously resized paths are restored.
func (c *TransportController) ResizePaths(b *Binding, mbps float64) error {
	if b == nil || len(b.paths) == 0 {
		return errors.New("ctrl: no transport paths bound")
	}
	share := mbps / float64(len(b.paths))
	if b.pathMbps > 0 && share == b.pathMbps {
		return nil
	}
	failed, err := c.net.ResizeEach(b.paths, share)
	switch {
	case err == nil:
		b.pathMbps = share
		return nil
	case errors.Is(err, transport.ErrUnknownPath):
		return fmt.Errorf("ctrl: reservation %s vanished", failed)
	default:
		return fmt.Errorf("ctrl: transport resize %s: %w", failed, err)
	}
}

// ReleasePaths frees every path of the slice and forgets their share in its
// binding. Idempotent. The caller holds what guards the binding (Tx.Binding).
func (c *TransportController) ReleasePaths(id slice.ID) {
	c.mu.Lock()
	b := c.bySlice[id]
	delete(c.bySlice, id)
	c.mu.Unlock()
	if b != nil {
		c.net.ReleaseEach(b.paths)
		b.pathMbps = 0
	}
}

// ImposePaths re-creates a slice's logged transport outcome for crash
// recovery — the recorded hops at the recorded bandwidth, no path search —
// and writes the handles, and their share when they all hold the same, into
// b in the same step. All-or-nothing: on failure b's share is unknown.
func (c *TransportController) ImposePaths(b *Binding, id slice.ID, paths []transport.Reservation) error {
	b.pathMbps = 0
	handles := make([]*transport.Reservation, 0, len(paths))
	share := 0.0
	for i, pr := range paths {
		r, err := c.net.Reserve(pr.ID, pr.Hops, pr.Mbps)
		if err != nil {
			c.net.ReleaseEach(handles)
			return fmt.Errorf("ctrl: transport impose %s: %w", pr.ID, err)
		}
		handles = append(handles, r)
		if i == 0 {
			share = pr.Mbps
		} else if pr.Mbps != share {
			share = 0 // the paths hold different shares: unknown
		}
	}
	b.paths, b.pathMbps = handles, share
	c.mu.Lock()
	c.bySlice[id] = b
	c.mu.Unlock()
	return nil
}

// FeasibleDelay returns the minimum worst-case eNB→DC delay achievable for
// the bandwidth, without reserving — admission control's transport check.
// It uses the delay-only path computation, so a feasibility probe never
// materialises hop lists.
func (c *TransportController) FeasibleDelay(dc string, mbps float64) (float64, error) {
	if len(c.enbs) == 0 {
		return 0, errors.New("ctrl: transport has no eNB nodes")
	}
	share := mbps / float64(len(c.enbs))
	worst := 0.0
	for _, enb := range c.enbs {
		d, err := c.net.PathDelay(transport.PathRequest{From: enb, To: dc, MinMbps: share})
		if err != nil {
			return 0, err
		}
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}

// Utilization implements Controller (mean up-link utilization).
func (c *TransportController) Utilization() float64 {
	mean, _ := c.net.Utilization()
	return mean
}

// PushTelemetry implements Controller.
func (c *TransportController) PushTelemetry(store *monitor.Store, now time.Time) {
	ss := c.tel.in(store, func() []string {
		return []string{monitor.DomainMetric("transport", "utilization"), monitor.DomainMetric("transport", "max_link_utilization")}
	})
	mean, max := c.net.Utilization()
	ss[0].Add(now, mean)
	ss[1].Add(now, max)
}

// CloudController manages the two data centers and the vEPC instances
// running in them.
type CloudController struct {
	FaultArm
	region *cloud.Region
	epcs   *epc.Registry

	mu      sync.RWMutex
	bySlice map[slice.ID]Deployment // live deployments per slice

	// dcs is the region's data centers sorted by name, taken once: the DC
	// set is complete before the controller is built and never changes
	// after.
	dcs []*cloud.DataCenter

	tel telemetry
}

// NewCloudController wraps the region, whose data centers must all be added
// already, with a fresh EPC registry.
func NewCloudController(region *cloud.Region) *CloudController {
	return &CloudController{region: region, epcs: epc.NewRegistry(), bySlice: make(map[slice.ID]Deployment),
		dcs: region.All()}
}

// Domain implements Controller.
func (c *CloudController) Domain() string { return "cloud" }

// EPCs exposes the vEPC registry (UE attach entry point).
func (c *CloudController) EPCs() *epc.Registry { return c.epcs }

// Deployment reports the result of a slice's cloud installation.
type Deployment struct {
	DataCenter string
	StackID    string
	EPCID      string
	// BootDelay is how long until the vEPC serves attaches.
	BootDelay time.Duration
}

// CanFit reports whether the named DC can host a vEPC for the throughput.
func (c *CloudController) CanFit(dc string, throughputMbps float64) bool {
	d, ok := c.region.Get(dc)
	if !ok {
		return false
	}
	return d.CanFit(epc.Template(throughputMbps))
}

// DeployEPC creates the Heat stack and registers the vEPC (in Deploying
// state) in the named data center.
func (c *CloudController) DeployEPC(id slice.ID, dcName string, p slice.PLMN, throughputMbps float64, class slice.ServiceClass) (Deployment, error) {
	dc, ok := c.region.Get(dcName)
	if !ok {
		return Deployment{}, fmt.Errorf("ctrl: unknown data center %q", dcName)
	}
	stackID := string(id) + "/vepc"
	if _, err := dc.CreateStack(stackID, epc.Template(throughputMbps)); err != nil {
		return Deployment{}, fmt.Errorf("ctrl: heat stack for %s: %w", id, err)
	}
	epcID := string(id) + "/epc"
	inst := epc.NewInstance(epcID, p, dcName, stackID, class)
	if err := c.epcs.Add(inst); err != nil {
		dc.DeleteStack(stackID)
		return Deployment{}, err
	}
	return Deployment{
		DataCenter: dcName,
		StackID:    stackID,
		EPCID:      epcID,
		BootDelay:  epc.BootDelayFor(throughputMbps),
	}, nil
}

// ImposeDeployment is DeployEPC plus the slice's entry in the deployment
// index Release finds it through — what Reserve does on the live path and
// what crash recovery replays (stack and vEPC IDs are deterministic).
func (c *CloudController) ImposeDeployment(id slice.ID, dcName string, p slice.PLMN, throughputMbps float64, class slice.ServiceClass) (Deployment, error) {
	dep, err := c.DeployEPC(id, dcName, p, throughputMbps, class)
	if err != nil {
		return Deployment{}, err
	}
	c.mu.Lock()
	c.bySlice[id] = dep
	c.mu.Unlock()
	return dep, nil
}

// MarkEPCRunning flips the instance to Running (called when the boot timer
// fires).
func (c *CloudController) MarkEPCRunning(epcID string, now time.Time) error {
	in, ok := c.epcs.Get(epcID)
	if !ok {
		return fmt.Errorf("ctrl: unknown EPC %q", epcID)
	}
	return in.MarkRunning(now)
}

// Teardown removes the vEPC and its stack. Idempotent.
func (c *CloudController) Teardown(dcName, stackID, epcID string) {
	c.epcs.Remove(epcID)
	if dc, ok := c.region.Get(dcName); ok {
		dc.DeleteStack(stackID)
	}
}

// Utilization implements Controller (mean DC vCPU utilization).
func (c *CloudController) Utilization() float64 {
	if len(c.dcs) == 0 {
		return 0
	}
	sum := 0.0
	for _, dc := range c.dcs {
		sum += dc.Utilization()
	}
	return sum / float64(len(c.dcs))
}

// PushTelemetry implements Controller.
func (c *CloudController) PushTelemetry(store *monitor.Store, now time.Time) {
	ss := c.tel.in(store, func() []string {
		names := []string{monitor.DomainMetric("cloud", "utilization")}
		for _, dc := range c.dcs {
			names = append(names, monitor.DomainMetric("cloud", dc.Name()+"/used_vcpus"), monitor.DomainMetric("cloud", dc.Name()+"/stacks"))
		}
		return names
	})
	ss[0].Add(now, c.Utilization())
	for i, dc := range c.dcs {
		cap := dc.Capacity()
		ss[1+2*i].Add(now, cap.UsedVCPUs)
		ss[2+2*i].Add(now, float64(cap.Stacks))
	}
}

// Set bundles the domain controllers and describes the execution plan the
// orchestrator's generic transaction engine follows.
type Set struct {
	RAN       *RANController
	Transport *TransportController
	Cloud     *CloudController
	// Extra holds additional pluggable domains (e.g. the MEC compute
	// controller) the testbed registered. They join the engine's
	// chain-independent group after the cloud domain, in registration
	// order — the core never learns their identity.
	Extra []Domain
	// Wrap, when non-nil, decorates every domain handed to the engine —
	// the hook fault-injection tests and tracing use. It must be set
	// before the orchestrator is constructed.
	Wrap func(Domain) Domain
}

// Wrapped applies the Set's Wrap decoration (if any) to d — the same
// decoration Chain/Async apply, so domain-event handlers (restoration)
// drive decorated domains exactly like the transaction engine does.
func (s Set) Wrapped(d Domain) Domain {
	if s.Wrap != nil {
		return s.Wrap(d)
	}
	return d
}

// Chain returns the sequential (dependent) domains in install order: each
// stage is sized to the previous grant's effective throughput, so transport
// paths match what the radio actually granted.
func (s Set) Chain() []Domain {
	return []Domain{s.Wrapped(s.RAN), s.Wrapped(s.Transport)}
}

// Async returns the domains independent of the chain: the engine reserves
// them one after another in this order before the chain, and ranks their
// failures after any chain failure, in this order.
func (s Set) Async() []Domain {
	out := []Domain{s.Wrapped(s.Cloud)}
	for _, d := range s.Extra {
		out = append(out, s.Wrapped(d))
	}
	return out
}

// All returns every controller as the generic monitoring interface, sorted
// by domain name.
func (s Set) All() []Controller {
	out := []Controller{s.Cloud, s.RAN, s.Transport}
	for _, d := range s.Extra {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain() < out[j].Domain() })
	return out
}

// PushTelemetry pushes every domain's metrics. Each controller writes only
// its own series, so the order is immaterial and no controller list is built.
func (s Set) PushTelemetry(store *monitor.Store, now time.Time) {
	s.Cloud.PushTelemetry(store, now)
	s.RAN.PushTelemetry(store, now)
	s.Transport.PushTelemetry(store, now)
	for _, d := range s.Extra {
		d.PushTelemetry(store, now)
	}
}
