// Package federation implements the multi-cluster orchestration tier of
// ROADMAP item 3: a registry of member clusters (each a full
// core.Orchestrator over its own testbed), a hierarchical capacity ledger
// tracking per-cluster headroom at the federation level, and a latency- and
// capacity-aware placement engine that maps a submitted slice — or a
// cross-cluster span — onto owning clusters.
//
// Ownership and propagation follow the package-orchestration model: the
// federation owns the span (the cross-cluster intent), each member owns the
// member-local leg slices realizing it, and state propagates one way — the
// federation submits and deletes legs through the member's public facade and
// refreshes its advertised-capacity summaries from the member's books at
// every barrier; a member never knows it is federated beyond the "fed:<span>"
// tenant tag on its legs.
//
// One writer: every verb holds the federation mutex end to end, member
// calls included (lock order federation → member; no member calls back),
// and ends in one apply of one transition (apply.go).
//
// A cross-cluster span is one member Submit per leg, in plan order: each
// member runs its own full admission and two-phase install, and the first
// member rejection deletes the already-submitted legs in reverse order and
// carries the member's typed cause back. The books are written once, when
// the span is placed. Every teardown deletes the legs in reverse plan order.
// Placement is deterministic: members are kept sorted by name regardless of
// Join order, member testbeds draw no randomness, and leg demand processes
// are RNG-free — so the same seed yields bit-identical per-cluster outcomes
// under any join order (TestFederationDeterminism).
//
// Partition semantics (the survivability model): partitioning a member
// freezes its advertised summary and excludes it from placement; spans with
// a leg on it are rolled back on every reachable member, and the
// unreachable member's legs are remembered as orphans, deleted exactly once
// when the partition heals. Failing a member is a permanent partition: its
// control loop stops and placement re-homes all new demand elsewhere. The
// federation conservation invariant (invariant.FedSweep) audits the books
// at every barrier: member ledger + federation headroom == advertised
// capacity for every reachable member, and the reserved book equals the
// span registry's per-member leg sum.
package federation

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// ClusterConfig describes one member cluster.
type ClusterConfig struct {
	// Name identifies the member; it keys the registry and must be unique.
	Name string `json:"name"`
	// Location is free-form placement metadata ("eu-west", "edge-muc-1").
	Location string `json:"location"`
	// LatencyMs is the fixed control/user-plane latency the federation tier
	// adds to reach this cluster; placement subtracts it from every span's
	// latency budget before handing the leg down.
	LatencyMs float64 `json:"latency_ms"`
	// Orchestrator configures the member's orchestrator.
	Orchestrator core.Config `json:"-"`
	// Testbed scales the member's infrastructure (zero = demo default).
	Testbed testbed.Config `json:"-"`
}

// barrierOffset delays the first barrier past the member epoch instant, so a
// barrier never ties with member epoch events on the shared clock.
const barrierOffset = time.Second

// Config tunes the federation tier.
type Config struct {
	// Epoch is the federation barrier period: summaries refresh and the
	// conservation invariant sweeps every Epoch (default 1m, matching the
	// member epoch default).
	Epoch time.Duration
	// Audit attaches the federation conservation auditor: every barrier
	// runs invariant.FedSweep over the books and the span registry, and
	// every transition is folded into a fresh tier that must stay equal to
	// the live one.
	Audit bool
	// AuditOnViolation, when set with Audit, is called synchronously for
	// every detected violation, with the federation mutex held: it must not
	// call back into the federation.
	AuditOnViolation func(invariant.Violation)
}

func (c Config) withDefaults() Config {
	if c.Epoch <= 0 {
		c.Epoch = time.Minute
	}
	return c
}

// member binds a registered member: the federation submits and deletes
// span legs through its orchestrator's public facade.
type member struct {
	cfg  ClusterConfig
	orch *core.Orchestrator
	tb   *testbed.Testbed
}

// read takes the member's ground truth for a refresh.
func (m member) read() reading {
	return reading{
		advertised: slice.ToKbps(m.tb.RadioCapacityMbps() * core.UtilizationCap),
		ledger:     m.orch.LedgerKbps(),
		epoch:      m.orch.Gain().Epochs,
	}
}

// Cluster is one registered member and the federation-tier books for it.
type Cluster struct {
	member
	books
}

// books are the federation-tier books of one member, in the members' exact
// ledger unit: the last refresh's reading; headroom, what the federation
// may still place (advertised minus ledger load at refresh, minus contracts
// placed since); reserved, the sum of live span-leg contracts.
type books struct {
	reading
	headroom, reserved  slice.Kbps
	partitioned, failed bool
}

// Orchestrator returns the member's orchestrator.
func (c *Cluster) Orchestrator() *core.Orchestrator { return c.orch }

// alive reports whether the federation can currently reach the member.
func (c *Cluster) alive() bool { return !c.partitioned && !c.failed }

// ClusterInfo is the REST/dashboard view of one member's registration and
// federation-tier books.
type ClusterInfo struct {
	Name           string  `json:"name"`
	Location       string  `json:"location,omitempty"`
	LatencyMs      float64 `json:"latency_ms"`
	Alive          bool    `json:"alive"`
	Partitioned    bool    `json:"partitioned,omitempty"`
	Failed         bool    `json:"failed,omitempty"`
	AdvertisedMbps float64 `json:"advertised_mbps"`
	HeadroomMbps   float64 `json:"headroom_mbps"`
	ReservedMbps   float64 `json:"reserved_mbps"`
	LedgerMbps     float64 `json:"ledger_mbps"`
	Epoch          int     `json:"epoch"`
	ActiveSlices   int     `json:"active_slices"`
}

// Federation is the multi-cluster orchestration tier. All methods are safe
// for concurrent use; the mutex guards all tier state.
type Federation struct {
	cfg   Config
	clock sim.Scheduler
	audit *invariant.Auditor
	fold  *Federation // the oracle tier under Config.Audit: fed only transitions

	mu       sync.Mutex
	members  []*Cluster // sorted by name, regardless of Join order
	byName   map[string]*Cluster
	spans    map[slice.ID]*span
	orphans  map[string][]slice.ID // member name -> leg IDs awaiting heal
	spanSeq  int64
	barriers int

	// Federation-tier outcome counters (span placements, not member
	// admissions).
	admitted      int
	rejected      int
	crossCluster  int
	rejectReasons map[string]int

	loop *sim.Event // the barrier timer
}

// New returns an empty federation on the shared clock.
func New(cfg Config, clock sim.Scheduler) *Federation {
	cfg = cfg.withDefaults()
	f := &Federation{
		cfg:     cfg,
		clock:   clock,
		byName:  make(map[string]*Cluster),
		spans:   make(map[slice.ID]*span),
		orphans: make(map[string][]slice.ID),

		rejectReasons: make(map[string]int),
	}
	if cfg.Audit {
		f.audit = invariant.New(invariant.Options{OnViolation: cfg.AuditOnViolation})
		f.fold = New(Config{}, clock)
	}
	return f
}

// Join registers a member cluster: builds its testbed and orchestrator on
// the shared clock and inserts it into the name-sorted registry. The books
// are primed immediately, so placement works before the first barrier.
func (f *Federation) Join(cc ClusterConfig) (*Cluster, error) {
	if cc.Name == "" {
		return nil, fmt.Errorf("federation: cluster name required")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.byName[cc.Name]; dup {
		return nil, fmt.Errorf("federation: duplicate cluster name %q", cc.Name)
	}
	tb, err := testbed.New(cc.Testbed, nil)
	if err != nil {
		return nil, fmt.Errorf("federation: cluster %s: %w", cc.Name, err)
	}
	m := member{cfg: cc, orch: core.New(cc.Orchestrator, tb, f.clock, monitor.NewStore(4096)), tb: tb}
	f.apply(memberJoined{member: m, read: m.read()})
	return f.byName[cc.Name], nil
}

// Cluster returns the member by name.
func (f *Federation) Cluster(name string) (*Cluster, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.byName[name]
	return c, ok
}

// Clusters returns the members' names in registry (sorted) order.
func (f *Federation) Clusters() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.members))
	for i, c := range f.members {
		out[i] = c.cfg.Name
	}
	return out
}

// ClusterInfos returns the registry view in sorted order.
func (f *Federation) ClusterInfos() []ClusterInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ClusterInfo, 0, len(f.members))
	for _, c := range f.members {
		out = append(out, ClusterInfo{
			Name:           c.cfg.Name,
			Location:       c.cfg.Location,
			LatencyMs:      c.cfg.LatencyMs,
			Alive:          c.alive(),
			Partitioned:    c.partitioned,
			Failed:         c.failed,
			AdvertisedMbps: c.advertised.Mbps(),
			HeadroomMbps:   c.headroom.Mbps(),
			ReservedMbps:   c.reserved.Mbps(),
			LedgerMbps:     c.ledger.Mbps(),
			Epoch:          c.epoch,
			ActiveSlices:   c.orch.ActiveCount(),
		})
	}
	return out
}

// Auditor returns the federation conservation auditor (nil unless
// Config.Audit).
func (f *Federation) Auditor() *invariant.Auditor { return f.audit }

// Start starts every member's control loop (in sorted order, so the shared
// clock sees a deterministic schedule) and the federation barrier. The
// first barrier fires one Epoch plus barrierOffset from now — offset past
// the member epoch instants so barrier events never tie with member epochs.
func (f *Federation) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.members {
		c.orch.Start()
	}
	if f.loop != nil {
		return
	}
	var tick func()
	tick = func() {
		f.RunBarrier()
		f.mu.Lock()
		if f.loop != nil {
			f.loop = f.clock.After(f.cfg.Epoch, "federation/barrier", tick)
		}
		f.mu.Unlock()
	}
	f.loop = f.clock.After(f.cfg.Epoch+barrierOffset, "federation/barrier", tick)
}

// Stop cancels the barrier and stops every member's control loop.
func (f *Federation) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.loop != nil {
		f.loop.Cancel()
		f.loop = nil
	}
	for _, c := range f.members {
		c.orch.Stop()
	}
}

// RunBarrier runs one federation barrier: re-anchor every reachable
// member's books to a fresh reading, then audit the federation conservation
// invariant over the same cut. The epoch pipeline of each member runs
// independently; the barrier only reads their public facades.
func (f *Federation) RunBarrier() {
	f.mu.Lock()
	defer f.mu.Unlock()
	reads := make(map[string]reading, len(f.members))
	for _, c := range f.members {
		if c.alive() {
			reads[c.cfg.Name] = c.read()
		}
	}
	f.apply(booksReanchored(reads))
	if f.audit != nil {
		f.audit.FedSweep(f.fedSweepInputLocked())
	}
}

// fedSweepInputLocked builds the conservation auditor's neutral view of the
// books and the span registry. Caller holds f.mu.
func (f *Federation) fedSweepInputLocked() invariant.FedSweepInput {
	in := invariant.FedSweepInput{Orphans: f.orphans}
	for _, c := range f.members {
		mv := invariant.FedMemberView{
			Name:       c.cfg.Name,
			Alive:      c.alive(),
			Advertised: c.advertised,
			Headroom:   c.headroom,
			Reserved:   c.reserved,
			FedSlices:  make(map[slice.ID]slice.ID),
		}
		if c.alive() {
			// Fresh ground truth, read after the refresh in the same
			// barrier event: verifies the refresh pipeline kept the
			// identity, not merely that a-b == a-b.
			mv.Ledger = c.orch.LedgerKbps()
			for _, sn := range c.orch.List() {
				if spanID, ok := spanOfTenant(sn.Tenant); ok && liveState(sn.State) {
					mv.FedSlices[sn.ID] = spanID
				}
			}
		}
		in.Members = append(in.Members, mv)
	}
	for _, sp := range f.liveSpansLocked() {
		sv := invariant.FedSpanView{ID: sp.id}
		for _, leg := range sp.legs {
			sv.Legs = append(sv.Legs, invariant.FedLegView{
				Member: leg.Cluster, Leg: leg.Slice, Contract: leg.contract,
			})
		}
		in.Spans = append(in.Spans, sv)
	}
	return in
}

// liveState reports whether a member-slice state string means the slice
// currently holds resources.
func liveState(state string) bool {
	switch state {
	case "admitted", "installing", "active", "reconfiguring":
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Partition, heal, fail-over.

// Partition marks the member unreachable: its summary freezes, placement
// excludes it, and every span with a leg on it is rolled back on all
// reachable members — the unreachable legs are remembered as orphans and
// deleted when the partition heals. The member itself keeps running (a
// control-plane partition, not a crash).
func (f *Federation) Partition(name string) error {
	return f.isolate(name, false)
}

// Fail marks the member permanently dead: like Partition, but the member's
// control loop is stopped and it never rejoins placement. New demand
// re-homes to the surviving members.
func (f *Federation) Fail(name string) error {
	return f.isolate(name, true)
}

func (f *Federation) isolate(name string, fail bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("federation: unknown cluster %q", name)
	}
	if !fail && c.failed {
		return fmt.Errorf("federation: cluster %q already failed", name)
	}
	// Roll back every span touching the member, in submission order: its
	// legs on the reachable members are deleted, its leg on the member
	// itself is orphaned by the apply.
	var dropped legsDropped
	for _, sp := range f.liveSpansLocked() {
		for _, leg := range sp.legs {
			if leg.Cluster == name {
				f.teardown(sp, name)
				dropped.ids = append(dropped.ids, sp.id)
				break
			}
		}
	}
	if !fail {
		f.apply(memberPartitioned{dropped, name})
		return nil
	}
	c.orch.Stop()
	f.apply(memberFailed{dropped, name})
	return nil
}

// Heal ends the member's partition: the orphaned legs are deleted exactly
// once, the books re-anchor, and the member rejoins placement.
func (f *Federation) Heal(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("federation: unknown cluster %q", name)
	}
	if c.failed {
		return fmt.Errorf("federation: cluster %q failed permanently", name)
	}
	// Delete the orphans before reading the books, so the re-anchored
	// headroom reflects the reclaimed capacity (a leg may have expired on
	// its own during the partition — deleteLeg is idempotent).
	for _, id := range f.orphans[name] {
		c.deleteLeg(id)
	}
	f.apply(memberHealed{name: name, reading: c.read()})
	return nil
}
