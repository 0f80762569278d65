package intent

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/traffic"
)

// Intent-plane lifecycle events, published on the core bus alongside the
// slice lifecycle so SSE consumers can follow fleets and rollouts with the
// same ?type= filter. They carry no Slice ID: the invariant auditor applies
// its per-slice state machine only to slice-scoped events, so the intent
// plane can narrate without forging lifecycle transitions.
const (
	EventFleet   core.EventType = "fleet"
	EventRollout core.EventType = "rollout"
)

// RolloutPhase is the canary state machine: canary → promoted | rolled-back.
type RolloutPhase string

// The rollout phases.
const (
	// RolloutCanary: the canary subset runs the target version; violations
	// are being observed.
	RolloutCanary RolloutPhase = "canary"
	// RolloutPromoted: the window closed clean and the whole fleet now runs
	// the target version.
	RolloutPromoted RolloutPhase = "promoted"
	// RolloutRolledBack: the canary regressed and every member is back on
	// the prior version.
	RolloutRolledBack RolloutPhase = "rolled-back"
)

// Member is one fleet instance: the (tenant, region) cell and its admission
// outcome.
type Member struct {
	Slice      slice.ID         `json:"slice,omitempty"`
	Tenant     string           `json:"tenant"`
	Region     Region           `json:"region"`
	Admitted   bool             `json:"admitted"`
	RejectCode slice.RejectCode `json:"reject_code,omitempty"`
}

// Fleet is the set of slices a bulk instantiation produced from one
// template version. Members are in submission order (tenant-major), which
// is also the deterministic canary-selection order.
type Fleet struct {
	ID        string    `json:"id"`
	Template  string    `json:"template"`
	Version   int       `json:"version"`
	Members   []Member  `json:"members"`
	Admitted  int       `json:"admitted"`
	Rejected  int       `json:"rejected"`
	CreatedAt time.Time `json:"created_at"`
}

// Rollout is one canary reconfiguration of a fleet between template
// versions.
type Rollout struct {
	ID          string       `json:"id"`
	Fleet       string       `json:"fleet"`
	FromVersion int          `json:"from_version"`
	ToVersion   int          `json:"to_version"`
	Phase       RolloutPhase `json:"phase"`
	Canary      []slice.ID   `json:"canary"`
	Rest        []slice.ID   `json:"rest"`
	// SinceSeq is the bus sequence at canary start; Violations counts the
	// SLA-violation epochs charged to the canary since then.
	SinceSeq   int64     `json:"since_seq"`
	Violations int       `json:"violations"`
	Window     string    `json:"window"`
	StartedAt  time.Time `json:"started_at"`
	DecidedAt  time.Time `json:"decided_at,omitzero"`
	Reason     string    `json:"reason,omitempty"`

	baseline []int // each canary's ViolationEpochs at the start
}

// RolloutConfig parameterizes StartRollout.
type RolloutConfig struct {
	Fleet     string `json:"fleet"`
	ToVersion int    `json:"to_version"`
	// CanaryFraction of live members (by submission order) resized first;
	// (0,1], default 0.25, at least one member.
	CanaryFraction float64 `json:"canary_fraction"`
	// Window is how long canary violations are observed before the
	// promote-or-rollback decision; default 5m.
	Window time.Duration `json:"window"`
	// MaxViolations tolerated on canary members inside the window; one more
	// rolls the fleet back. Default 0: any canary violation aborts.
	MaxViolations int `json:"max_violations"`
}

// Quotas bounds bulk instantiation. Zero values mean unlimited.
type Quotas struct {
	// MaxSlicesPerTenant caps a tenant's live fleet membership across all
	// fleets (existing + requested).
	MaxSlicesPerTenant int `json:"max_slices_per_tenant"`
	// MaxSlicesPerRegion caps a region's live fleet membership likewise.
	MaxSlicesPerRegion int `json:"max_slices_per_region"`
}

// Config parameterizes NewManager.
type Config struct {
	Quotas Quotas
}

// Manager is the intent-plane control head: it owns the template store and
// the fleet/rollout metadata, and drives the orchestrator through its
// public read (DryRun) and reconfiguration (SubmitBatch, SetProvisionCap)
// surface. The store's lock is the tier's one lock: it serializes every
// intent verb end to end — the plane is a low-rate control path, and serial
// decisions keep rollouts deterministic under the sim clock.
type Manager struct {
	orch   *core.Orchestrator
	clock  sim.Scheduler
	store  *Store
	quotas Quotas
}

// NewManager builds the intent plane over an orchestrator and a clock (the
// sim scheduler in scenarios, a realtime clock in the daemon). An audited
// orchestrator also audits the intent tier's transitions (apply.go).
func NewManager(orch *core.Orchestrator, clock sim.Scheduler, cfg Config) *Manager {
	m := &Manager{orch: orch, clock: clock, store: NewStore(), quotas: cfg.Quotas}
	if a := orch.Auditor(); a != nil {
		m.store.audit, m.store.fold = a, NewStore()
	}
	return m
}

// Store returns the template registry.
func (m *Manager) Store() *Store { return m.store }

// DryRun runs the full admission feasibility chain for one (template,
// tenant, region) cell against live capacity without reserving anything.
// Drafts may be dry-run — that is the point of server-side validation
// before publish.
func (m *Manager) DryRun(name string, version int, tenant string, region Region) (core.DryRunReport, error) {
	t, ok := m.store.Get(name, version)
	if !ok {
		return core.DryRunReport{}, fmt.Errorf("intent: template %s version %d %w", name, version, ErrNotFound)
	}
	return m.orch.DryRun(t.Request(tenant, region))
}

// DemandFactory supplies the simulated demand process for one fleet cell;
// nil members (live mode) submit without a demand process.
type DemandFactory func(tenant string, region Region, t Template) traffic.Demand

// Instantiate bulk-creates one slice per tenant × region cell from a
// published template version, decided jointly by the batch policy, and
// returns the resulting fleet. Admitted members get the template's
// provisioning cap installed; rejected cells stay in the fleet record with
// their typed rejection for the operator to read.
func (m *Manager) Instantiate(name string, version int, tenants []string, regions []Region, policy core.BatchPolicy, demand DemandFactory) (Fleet, error) {
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	t, ok := m.store.get(name, version)
	if !ok {
		return Fleet{}, fmt.Errorf("intent: template %s version %d %w", name, version, ErrNotFound)
	}
	if t.State != TemplatePublished {
		return Fleet{}, fmt.Errorf("intent: template %s v%d is %s; only published templates can be instantiated", name, version, t.State)
	}
	if len(tenants) == 0 || len(regions) == 0 {
		return Fleet{}, fmt.Errorf("intent: instantiation needs at least one tenant and one region")
	}
	if err := m.checkQuotasLocked(tenants, regions); err != nil {
		return Fleet{}, err
	}

	// Tenant-major cell order: the submission order, the member order, and
	// therefore the canary-selection order — all deterministic.
	f := Fleet{ID: fmt.Sprintf("fl-%d", len(m.store.fleets)+1), Template: name, Version: version}
	items := make([]core.BatchItem, 0, len(tenants)*len(regions))
	for _, tenant := range tenants {
		for _, region := range regions {
			it := core.BatchItem{Request: t.Request(tenant, region)}
			if demand != nil {
				it.Demand = demand(tenant, region, t)
			}
			items = append(items, it)
			f.Members = append(f.Members, Member{Tenant: tenant, Region: region})
		}
	}
	slices, err := m.orch.SubmitBatch(items, policy)
	if err != nil {
		return Fleet{}, err
	}

	f.CreatedAt = m.clock.Now()
	cap := t.TargetMbps()
	for i, sl := range slices {
		mem := &f.Members[i]
		mem.Slice = sl.ID()
		if sl.State() == slice.StateRejected {
			if c, ok := sl.Cause(); ok {
				mem.RejectCode = c.Code
			}
			f.Rejected++
		} else {
			mem.Admitted = true
			f.Admitted++
			if _, err := m.orch.SetProvisionCap(sl.ID(), cap); err != nil {
				return Fleet{}, fmt.Errorf("intent: cap %s: %w", sl.ID(), err)
			}
		}
	}
	m.publishLocked(EventFleet, fmt.Sprintf("%s: %s v%d instantiated, %d admitted / %d rejected", f.ID, name, version, f.Admitted, f.Rejected))
	m.store.apply(fleetInstantiated{f})
	return f, nil
}

// checkQuotasLocked enforces tenant/region caps over live members of
// existing fleets plus the requested cells.
func (m *Manager) checkQuotasLocked(tenants []string, regions []Region) error {
	if m.quotas.MaxSlicesPerTenant == 0 && m.quotas.MaxSlicesPerRegion == 0 {
		return nil
	}
	perTenant := make(map[string]int)
	perRegion := make(map[Region]int)
	for _, f := range m.store.fleets {
		for _, mem := range f.Members {
			if !mem.Admitted || !m.liveLocked(mem.Slice) {
				continue
			}
			perTenant[mem.Tenant]++
			perRegion[mem.Region]++
		}
	}
	for _, tenant := range tenants {
		perTenant[tenant] += len(regions)
		if q := m.quotas.MaxSlicesPerTenant; q > 0 && perTenant[tenant] > q {
			return fmt.Errorf("intent: quota: tenant %s would hold %d slices, cap %d", tenant, perTenant[tenant], q)
		}
	}
	for _, region := range regions {
		perRegion[region] += len(tenants)
		if q := m.quotas.MaxSlicesPerRegion; q > 0 && perRegion[region] > q {
			return fmt.Errorf("intent: quota: region %s would hold %d slices, cap %d", region, perRegion[region], q)
		}
	}
	return nil
}

// liveLocked reports whether a fleet member is still reconfigurable.
func (m *Manager) liveLocked(id slice.ID) bool {
	sl, ok := m.orch.Get(id)
	if !ok {
		return false
	}
	switch sl.State() {
	case slice.StateRejected, slice.StateTerminated:
		return false
	}
	return true
}

// GetFleet returns one fleet by ID.
func (m *Manager) GetFleet(id string) (Fleet, bool) {
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	if f := m.store.fleet(id); f != nil {
		return *f, true
	}
	return Fleet{}, false
}

// Fleets lists fleets in creation order.
func (m *Manager) Fleets() []Fleet {
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	out := make([]Fleet, 0, len(m.store.fleets))
	for _, f := range m.store.fleets {
		out = append(out, *f)
	}
	return out
}

// StartRollout resizes a canary fraction of the fleet to the target
// template version, then observes the SLA-violation epochs charged to the
// canary members for the window. At the window edge the decision is automatic:
// a clean canary promotes the whole fleet; more than MaxViolations rolls
// every canary member back to the prior version. The decision runs on the
// manager's clock, so under the sim scheduler the whole state machine is
// deterministic.
func (m *Manager) StartRollout(cfg RolloutConfig) (Rollout, error) {
	m.store.mu.Lock()
	defer m.store.mu.Unlock()

	f := m.store.fleet(cfg.Fleet)
	if f == nil {
		return Rollout{}, fmt.Errorf("intent: fleet %s %w", cfg.Fleet, ErrNotFound)
	}
	for _, r := range m.store.rollouts {
		if r.Fleet == cfg.Fleet && r.Phase == RolloutCanary {
			return Rollout{}, fmt.Errorf("intent: fleet %s already has rollout %s in flight", cfg.Fleet, r.ID)
		}
	}
	to, ok := m.store.get(f.Template, cfg.ToVersion)
	if !ok {
		return Rollout{}, fmt.Errorf("intent: template %s version %d %w", f.Template, cfg.ToVersion, ErrNotFound)
	}
	if to.State != TemplatePublished {
		return Rollout{}, fmt.Errorf("intent: template %s v%d is %s; only published versions can roll out", f.Template, cfg.ToVersion, to.State)
	}
	if cfg.ToVersion == f.Version {
		return Rollout{}, fmt.Errorf("intent: fleet %s already runs %s v%d", f.ID, f.Template, f.Version)
	}
	frac := cfg.CanaryFraction
	if frac <= 0 || frac > 1 {
		frac = 0.25
	}
	window := cfg.Window
	if window <= 0 {
		window = 5 * time.Minute
	}

	var live []slice.ID
	for _, mem := range f.Members {
		if mem.Admitted && m.liveLocked(mem.Slice) {
			live = append(live, mem.Slice)
		}
	}
	if len(live) == 0 {
		return Rollout{}, fmt.Errorf("intent: fleet %s has no live members to roll out", f.ID)
	}
	n := int(math.Ceil(frac * float64(len(live)))) // ≥ 1: frac > 0, live non-empty

	r := Rollout{
		ID:          fmt.Sprintf("ro-%d", len(m.store.rollouts)+1),
		Fleet:       f.ID,
		FromVersion: f.Version,
		ToVersion:   cfg.ToVersion,
		Phase:       RolloutCanary,
		Canary:      live[:n],
		Rest:        live[n:],
		SinceSeq:    m.orch.Events().LastSeq(),
		Window:      window.String(),
		StartedAt:   m.clock.Now(),
		baseline:    make([]int, n),
	}
	cap := to.TargetMbps()
	for i, id := range r.Canary {
		if sl, ok := m.orch.Get(id); ok {
			r.baseline[i] = sl.Accounting().ViolationEpochs
		}
		if _, err := m.orch.SetProvisionCap(id, cap); err != nil {
			return Rollout{}, fmt.Errorf("intent: canary %s: %w", id, err)
		}
	}
	m.publishLocked(EventRollout, fmt.Sprintf("%s: fleet %s canary v%d->v%d (%d/%d slices, window %s)", r.ID, f.ID, r.FromVersion, r.ToVersion, n, len(live), window))
	m.clock.After(window, "intent/"+r.ID+"/decide", func() { m.decide(r.ID, cfg.MaxViolations) })
	m.store.apply(rolloutStarted{r})
	return r, nil
}

// decide closes a rollout's observation window and promotes or rolls back.
// The canary's violations are read from the canary slices themselves, so no
// unrelated bus traffic can hide them. A canary evicted from the bounded
// finished history (core.Config.HistoryLimit) before the decision
// contributes nothing: its count left with its record.
func (m *Manager) decide(id string, maxViolations int) {
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	r := m.store.rollout(id)
	if r == nil || r.Phase != RolloutCanary {
		return
	}
	d := rolloutDecided{id: id, phase: RolloutPromoted, at: m.clock.Now()}
	for i, s := range r.Canary {
		if sl, ok := m.orch.Get(s); ok {
			d.violations += sl.Accounting().ViolationEpochs - r.baseline[i]
		}
	}
	d.reason = fmt.Sprintf("%d canary violations in window (max %d)", d.violations, maxViolations)

	// A clean canary promotes the rest of the fleet to the target version's
	// cap. An SLA regression puts every canary member back on the prior
	// version's cap; the rest of the fleet never moved.
	resize, version, verb := r.Rest, r.ToVersion, "promote"
	detail := fmt.Sprintf("%s: fleet %s promoted to v%d (%d violations)", r.ID, r.Fleet, r.ToVersion, d.violations)
	if d.violations > maxViolations {
		d.phase, resize, version, verb = RolloutRolledBack, r.Canary, r.FromVersion, "rollback"
		detail = fmt.Sprintf("%s: fleet %s rolled back to v%d: %s", r.ID, r.Fleet, r.FromVersion, d.reason)
	}
	t, _ := m.store.get(m.store.fleet(r.Fleet).Template, version)
	for _, s := range resize {
		if _, err := m.orch.SetProvisionCap(s, t.TargetMbps()); err != nil {
			log.Printf("intent: %s %s: %v", verb, s, err)
		}
	}
	m.publishLocked(EventRollout, detail)
	m.store.apply(d)
}

// GetRollout returns one rollout by ID.
func (m *Manager) GetRollout(id string) (Rollout, bool) {
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	if r := m.store.rollout(id); r != nil {
		return *r, true
	}
	return Rollout{}, false
}

// Rollouts lists rollouts in creation order.
func (m *Manager) Rollouts() []Rollout {
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	out := make([]Rollout, 0, len(m.store.rollouts))
	for _, r := range m.store.rollouts {
		out = append(out, *r)
	}
	return out
}

// publishLocked narrates an intent-plane transition on the core event bus.
func (m *Manager) publishLocked(t core.EventType, detail string) {
	m.orch.Events().Publish(core.Event{Time: m.clock.Now(), Type: t, Detail: detail})
}
