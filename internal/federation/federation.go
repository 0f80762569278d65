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
// A cross-cluster span is one member Submit per leg, in plan order: each
// member runs its own full admission and two-phase install, and the first
// member rejection deletes the already-submitted legs in reverse order and
// carries the member's typed cause back. The span record's legs are the
// only span state; every teardown deletes them in reverse plan order.
// Placement is deterministic: members are kept sorted by name regardless of
// Join order, member testbed randomness is derived from the member's name
// (never from shared-RNG consumption order), and leg demand processes are
// RNG-free — so the same seed yields bit-identical per-cluster outcomes
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
	"hash/fnv"
	"math/rand"
	"sort"
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

// Config tunes the federation tier.
type Config struct {
	// Seed drives the per-member testbed randomness. Each member's RNG is
	// derived from Seed and the member's name, so outcomes are independent
	// of join order and of any shared-RNG consumption interleaving.
	Seed int64
	// Epoch is the federation barrier period: summaries refresh and the
	// conservation invariant sweeps every Epoch (default 1m, matching the
	// member epoch default).
	Epoch time.Duration
	// BarrierOffset delays the first barrier past the member epoch instant
	// (default 1s), so a barrier never ties with member epoch events on the
	// shared clock.
	BarrierOffset time.Duration
	// Audit attaches the federation conservation auditor: every barrier
	// runs invariant.FedSweep over the books and the span registry.
	Audit bool
	// AuditOnViolation, when set with Audit, is called synchronously for
	// every detected violation.
	AuditOnViolation func(invariant.Violation)
}

func (c Config) withDefaults() Config {
	if c.Epoch <= 0 {
		c.Epoch = time.Minute
	}
	if c.BarrierOffset <= 0 {
		c.BarrierOffset = time.Second
	}
	return c
}

// Cluster is one registered member: a full orchestrator plus its testbed,
// and the federation-tier books for it. The federation submits and deletes
// span legs through the orchestrator's public facade (submitLeg, deleteLeg).
// The books (advertised, headroom, reserved) are guarded by the Federation
// mutex.
type Cluster struct {
	cfg  ClusterConfig
	orch *core.Orchestrator
	tb   *testbed.Testbed

	// Federation-tier capacity books (guarded by Federation.mu), in the
	// same exact unit as the members' own ledgers. advertised is the
	// member's capacity bar (radio capacity times the member's utilization
	// cap) at the last refresh; headroom is what the federation may still
	// place on it (advertised minus the member's ledger load at refresh,
	// minus contracts placed since); reserved is the running sum of live
	// span-leg contracts on the member.
	advertised slice.Kbps
	headroom   slice.Kbps
	reserved   slice.Kbps
	ledgerLast slice.Kbps // member ledger load at the last refresh
	epochLast  int        // member epoch count at the last refresh

	partitioned bool
	failed      bool
}

// Name returns the member's name.
func (c *Cluster) Name() string { return c.cfg.Name }

// Orchestrator returns the member's orchestrator.
func (c *Cluster) Orchestrator() *core.Orchestrator { return c.orch }

// Testbed returns the member's testbed.
func (c *Cluster) Testbed() *testbed.Testbed { return c.tb }

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
// for concurrent use; the mutex guards the registry, the span table and the
// capacity books, and is never held across a member call that can block on
// member shard locks (leg submission and deletion run unlocked — the books
// are reserved first, exactly like the core's two-phase ledger reservation).
type Federation struct {
	cfg   Config
	clock sim.Scheduler
	audit *invariant.Auditor

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

	loopMu sync.Mutex
	loop   *sim.Event
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
	}
	if cfg.Audit {
		f.audit = invariant.New(invariant.Options{OnViolation: cfg.AuditOnViolation})
	}
	return f
}

// memberSeed derives the member's testbed RNG seed from the federation seed
// and the member's name — never from shared-RNG consumption order, so the
// channel realizations of a member are identical under any join order.
func memberSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Join registers a member cluster: builds its testbed and orchestrator on
// the shared clock and inserts it into the name-sorted registry. The books
// are primed immediately, so placement works before the first barrier.
func (f *Federation) Join(cc ClusterConfig) (*Cluster, error) {
	if cc.Name == "" {
		return nil, fmt.Errorf("federation: cluster name required")
	}
	rng := rand.New(rand.NewSource(memberSeed(f.cfg.Seed, cc.Name)))
	tb, err := testbed.New(cc.Testbed, rng)
	if err != nil {
		return nil, fmt.Errorf("federation: cluster %s: %w", cc.Name, err)
	}
	orch := core.New(cc.Orchestrator, tb, f.clock, monitor.NewStore(4096))
	c := &Cluster{cfg: cc, orch: orch, tb: tb}

	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.byName[cc.Name]; dup {
		return nil, fmt.Errorf("federation: duplicate cluster name %q", cc.Name)
	}
	f.byName[cc.Name] = c
	f.members = append(f.members, c)
	sort.Slice(f.members, func(i, j int) bool {
		return f.members[i].cfg.Name < f.members[j].cfg.Name
	})
	f.refreshLocked(c)
	return c, nil
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
			LedgerMbps:     c.ledgerLast.Mbps(),
			Epoch:          c.epochLast,
			ActiveSlices:   c.orch.ActiveCount(),
		})
	}
	return out
}

// Auditor returns the federation conservation auditor (nil unless
// Config.Audit).
func (f *Federation) Auditor() *invariant.Auditor { return f.audit }

// Barriers returns how many federation barriers have run.
func (f *Federation) Barriers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.barriers
}

// Start starts every member's control loop (in sorted order, so the shared
// clock sees a deterministic schedule) and the federation barrier. The
// first barrier fires one Epoch plus BarrierOffset from now — offset past
// the member epoch instants so barrier events never tie with member epochs.
func (f *Federation) Start() {
	f.mu.Lock()
	members := append([]*Cluster(nil), f.members...)
	f.mu.Unlock()
	for _, c := range members {
		c.orch.Start()
	}
	f.loopMu.Lock()
	defer f.loopMu.Unlock()
	if f.loop != nil {
		return
	}
	var tick func()
	tick = func() {
		f.RunBarrier()
		f.loopMu.Lock()
		if f.loop != nil {
			f.loop = f.clock.After(f.cfg.Epoch, "federation/barrier", tick)
		}
		f.loopMu.Unlock()
	}
	f.loop = f.clock.After(f.cfg.Epoch+f.cfg.BarrierOffset, "federation/barrier", tick)
}

// Stop cancels the barrier and stops every member's control loop.
func (f *Federation) Stop() {
	f.loopMu.Lock()
	if f.loop != nil {
		f.loop.Cancel()
		f.loop = nil
	}
	f.loopMu.Unlock()
	f.mu.Lock()
	members := append([]*Cluster(nil), f.members...)
	f.mu.Unlock()
	for _, c := range members {
		c.orch.Stop()
	}
}

// refreshLocked re-anchors one reachable member's books to ground truth:
// advertised is the member's current capacity bar and headroom snaps to
// advertised minus the member's ledger load. Caller holds f.mu.
func (f *Federation) refreshLocked(c *Cluster) {
	if !c.alive() {
		return
	}
	mcfg := c.orch.Config()
	c.advertised = slice.ToKbps(c.tb.RadioCapacityMbps() * mcfg.UtilizationCap)
	c.ledgerLast = c.orch.LedgerKbps()
	// A fade can drop the bar below what the member already carries.
	c.headroom = max(c.advertised-c.ledgerLast, 0)
	c.epochLast = c.orch.Gain().Epochs
}

// RunBarrier runs one federation barrier: refresh every reachable member's
// advertised summary from its latest books, then audit the federation
// conservation invariant over the refreshed cut. The epoch pipeline of each
// member runs independently; the barrier only reads their public facades.
func (f *Federation) RunBarrier() {
	f.mu.Lock()
	f.barriers++
	for _, c := range f.members {
		f.refreshLocked(c)
	}
	var in invariant.FedSweepInput
	if f.audit != nil {
		in = f.fedSweepInputLocked()
	}
	f.mu.Unlock()
	if f.audit != nil {
		f.audit.FedSweep(in)
	}
}

// fedSweepInputLocked builds the conservation auditor's neutral view of the
// books and the span registry. Caller holds f.mu.
func (f *Federation) fedSweepInputLocked() invariant.FedSweepInput {
	in := invariant.FedSweepInput{
		Orphans: make(map[string][]slice.ID, len(f.orphans)),
	}
	for name, legs := range f.orphans {
		in.Orphans[name] = append([]slice.ID(nil), legs...)
	}
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
	ids := make([]slice.ID, 0, len(f.spans))
	for id := range f.spans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sp := f.spans[id]
		sv := invariant.FedSpanView{ID: id}
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
	c, ok := f.byName[name]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("federation: unknown cluster %q", name)
	}
	if fail {
		c.failed = true
	} else if c.failed {
		f.mu.Unlock()
		return fmt.Errorf("federation: cluster %q already failed", name)
	} else {
		c.partitioned = true
	}
	// Roll back every span touching the member: release the books for all
	// its legs, remember the unreachable leg as an orphan, and collect the
	// reachable legs to delete outside the lock.
	var teardown []memberLeg
	ids := make([]slice.ID, 0, len(f.spans))
	for id := range f.spans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sp := f.spans[id]
		touched := false
		for _, leg := range sp.legs {
			if leg.Cluster == name {
				touched = true
				f.orphans[name] = append(f.orphans[name], leg.Slice)
			}
		}
		if touched {
			teardown = append(teardown, f.dropSpanLocked(sp)...)
		}
	}
	orch := c.orch
	f.mu.Unlock()
	deleteLegs(teardown)
	if fail {
		orch.Stop()
	}
	return nil
}

// Heal ends the member's partition: the orphaned legs are deleted exactly
// once, the summary refreshes, and the member rejoins placement.
func (f *Federation) Heal(name string) error {
	f.mu.Lock()
	c, ok := f.byName[name]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("federation: unknown cluster %q", name)
	}
	if c.failed {
		f.mu.Unlock()
		return fmt.Errorf("federation: cluster %q failed permanently", name)
	}
	c.partitioned = false
	orphans := f.orphans[name]
	delete(f.orphans, name)
	f.mu.Unlock()
	// Delete the orphans before re-anchoring the books, so the refreshed
	// headroom reflects the reclaimed capacity (a leg may have expired on
	// its own during the partition — deleteLeg is idempotent).
	for _, id := range orphans {
		c.deleteLeg(id)
	}
	f.mu.Lock()
	f.refreshLocked(c)
	f.mu.Unlock()
	return nil
}
