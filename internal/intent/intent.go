// Package intent is the declarative slice-intent plane (DESIGN.md §13,
// ROADMAP item 4): tenants stop submitting one-shot slice requests and
// instead declare a slice *class* — a versioned Template — that the
// operator publishes, dry-runs against live capacity, instantiates as a
// fleet across tenants × regions, and reconfigures with canary rollouts
// that automatically roll back on SLA regression.
//
// The lifecycle follows the package-orchestration model of kpt (cited in
// ROADMAP): a template version is born Draft (mutable, not instantiable),
// and Publish promotes it to Published (immutable, instantiable) only after
// its two guardrails pass: sla-bounds, then provision-bounds. The first
// failure aborts the publish and is named in the error — the order is part
// of the API contract so operators can reason about which error surfaces
// first.
//
// Nothing in this package owns resources: templates and fleets are control
// metadata, and every resource decision is delegated to the core
// orchestrator (DryRun, SubmitBatch, SetProvisionCap), so the invariant
// auditor's books never gain a second writer.
package intent

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/invariant"
	"repro/internal/slice"
)

// TemplateState is the template lifecycle: Draft → Published.
type TemplateState string

// The template lifecycle states.
const (
	// TemplateDraft: mutable, guardrails not yet enforced, cannot be
	// instantiated or rolled out to.
	TemplateDraft TemplateState = "draft"
	// TemplatePublished: guardrails passed, immutable, instantiable.
	TemplatePublished TemplateState = "published"
)

// Sentinel errors, wrapped so callers (the REST status mapping) classify a
// failure with errors.Is instead of reading its message — which quotes
// user-chosen names.
var (
	// ErrNotFound marks an unknown template version or fleet.
	ErrNotFound = errors.New("not found")
	// ErrGuardrail marks a publish a guardrail refused: the request was
	// well-formed, the template violates policy.
	ErrGuardrail = errors.New("guardrail")
)

// Region names a placement region of the single-cluster testbed: the core
// data center or the latency-critical edge. (The federated tier maps
// regions onto member clusters instead; the intent plane only forwards the
// name.)
type Region string

// The placement regions.
const (
	RegionCore Region = "core"
	RegionEdge Region = "edge"
)

// ParseRegion validates a region name.
func ParseRegion(s string) (Region, error) {
	switch Region(strings.ToLower(s)) {
	case RegionCore:
		return RegionCore, nil
	case RegionEdge:
		return RegionEdge, nil
	default:
		return "", fmt.Errorf("intent: unknown region %q (want core or edge)", s)
	}
}

// Template is one versioned slice class: the SLA contract every instance
// carries plus the provisioning posture (ProvisionFraction) that rollouts
// change between versions. Versions of a name are immutable once published;
// a change is a new version.
type Template struct {
	Name    string        `json:"name"`
	Version int           `json:"version"`
	State   TemplateState `json:"state"`

	// The SLA contract stamped on every instance.
	ThroughputMbps float64            `json:"throughput_mbps"`
	MaxLatencyMs   float64            `json:"max_latency_ms"`
	Duration       time.Duration      `json:"duration"`
	PriceEUR       float64            `json:"price_eur"`
	PenaltyEUR     float64            `json:"penalty_eur"`
	Class          slice.ServiceClass `json:"class"`

	// ProvisionFraction caps each instance's epoch provisioning target at
	// this fraction of the contracted throughput ((0,1]; default 1 = let
	// the forecast decide alone). Lower fractions overbook harder — the
	// knob canary rollouts turn, and the one that triggers SLA-regression
	// rollback when turned too far.
	ProvisionFraction float64 `json:"provision_fraction"`

	CreatedAt   time.Time `json:"created_at"`
	PublishedAt time.Time `json:"published_at,omitzero"`
}

// withDefaults fills the optional knobs.
func (t Template) withDefaults() Template {
	if t.ProvisionFraction <= 0 || t.ProvisionFraction > 1 {
		t.ProvisionFraction = 1
	}
	return t
}

// Validate checks the structural shape a draft must already have (the
// guardrails add the policy checks at publish time).
func (t Template) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("intent: template name required")
	}
	if strings.ContainsAny(t.Name, "/ \t\n") {
		return fmt.Errorf("intent: template name %q must not contain slashes or spaces", t.Name)
	}
	if t.ThroughputMbps <= 0 {
		return fmt.Errorf("intent: template %s: throughput must be positive", t.Name)
	}
	if t.MaxLatencyMs <= 0 {
		return fmt.Errorf("intent: template %s: max latency must be positive", t.Name)
	}
	if t.Duration <= 0 {
		return fmt.Errorf("intent: template %s: duration must be positive", t.Name)
	}
	if t.PriceEUR < 0 || t.PenaltyEUR < 0 {
		return fmt.Errorf("intent: template %s: price and penalty must be non-negative", t.Name)
	}
	return nil
}

// TargetMbps is the per-instance provisioning cap the template implies.
func (t Template) TargetMbps() float64 {
	return t.ThroughputMbps * t.withDefaults().ProvisionFraction
}

// Request materializes one slice request from the template for a tenant in
// a region.
func (t Template) Request(tenant string, region Region) slice.Request {
	return slice.Request{
		Tenant: tenant,
		SLA: slice.SLA{
			ThroughputMbps: t.ThroughputMbps,
			MaxLatencyMs:   t.MaxLatencyMs,
			Duration:       t.Duration,
			PriceEUR:       t.PriceEUR,
			PenaltyEUR:     t.PenaltyEUR,
			Class:          t.Class,
			EdgeCompute:    region == RegionEdge,
		},
	}
}

// The guardrails' bounds: the contract a template may promise and how hard
// it may overbook.
const (
	maxTemplateMbps      = 1000.0
	minTemplateLatencyMs = 1.0 // the physics floor of the testbed
	maxTemplateDuration  = 30 * 24 * time.Hour
	// A template provisioning (say) 10% of its contract is a penalty
	// machine, caught before it ships.
	minProvisionFraction = 0.1
)

// guardrail runs the publish-time policy checks in their fixed order and
// returns the name of the first one t fails and why; a nil error passes.
// There is no price check: Validate already holds every draft to a
// non-negative price over a positive throughput and duration.
func guardrail(t Template) (string, error) {
	switch {
	case t.ThroughputMbps > maxTemplateMbps:
		return "sla-bounds", fmt.Errorf("throughput %.1f Mbps exceeds bound %.1f", t.ThroughputMbps, maxTemplateMbps)
	case t.MaxLatencyMs < minTemplateLatencyMs:
		return "sla-bounds", fmt.Errorf("latency bound %.1f ms below the %.1f ms floor", t.MaxLatencyMs, minTemplateLatencyMs)
	case t.Duration > maxTemplateDuration:
		return "sla-bounds", fmt.Errorf("duration %v exceeds bound %v", t.Duration, maxTemplateDuration)
	}
	if f := t.withDefaults().ProvisionFraction; f < minProvisionFraction {
		return "provision-bounds", fmt.Errorf("provision fraction %.2f below bound %.2f", f, minProvisionFraction)
	}
	return "", nil
}

// Store is the versioned template registry and, for the Manager built on
// it, the intent tier's state under its one lock. Safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	byName   map[string][]Template // versions of a name; Version = index+1
	fleets   []*Fleet              // creation order: fleets[i].ID is fl-<i+1>
	rollouts []*Rollout            // creation order: rollouts[i].ID is ro-<i+1>

	audit *invariant.Auditor
	fold  *Store // fed only transitions; must equal this store (apply.go)
}

// NewStore builds an empty registry.
func NewStore() *Store { return &Store{byName: make(map[string][]Template)} }

// CreateDraft registers t as the next draft version of its name and returns
// it with Version/State/CreatedAt assigned.
func (s *Store) CreateDraft(t Template, now time.Time) (Template, error) {
	t = t.withDefaults()
	if err := t.Validate(); err != nil {
		return Template{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Version = len(s.byName[t.Name]) + 1
	t.State = TemplateDraft
	t.CreatedAt = now
	t.PublishedAt = time.Time{}
	s.byName[t.Name] = append(s.byName[t.Name], t)
	return t, nil
}

// UpdateDraft replaces a draft version in place. Published versions are
// immutable.
func (s *Store) UpdateDraft(t Template) (Template, error) {
	t = t.withDefaults()
	if err := t.Validate(); err != nil {
		return Template{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.byName[t.Name]
	if t.Version < 1 || t.Version > len(vs) {
		return Template{}, fmt.Errorf("intent: template %s version %d %w", t.Name, t.Version, ErrNotFound)
	}
	cur := vs[t.Version-1]
	if cur.State != TemplateDraft {
		return Template{}, fmt.Errorf("intent: template %s v%d is %s and immutable", t.Name, t.Version, cur.State)
	}
	t.State = TemplateDraft
	t.CreatedAt = cur.CreatedAt
	t.PublishedAt = time.Time{}
	vs[t.Version-1] = t
	return t, nil
}

// Publish promotes a draft to Published after its guardrails pass; the first
// failure aborts with the guardrail's name in the error. Publishing a
// published version is a no-op (idempotent).
func (s *Store) Publish(name string, version int, now time.Time) (Template, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.get(name, version)
	if !ok {
		return Template{}, fmt.Errorf("intent: template %s version %d %w", name, version, ErrNotFound)
	}
	if t.State == TemplatePublished {
		return t, nil
	}
	if check, err := guardrail(t); err != nil {
		return Template{}, fmt.Errorf("intent: %w %s: template %s v%d: %w", ErrGuardrail, check, name, version, err)
	}
	s.apply(templatePublished{Template: t, at: now})
	t, _ = s.get(name, version)
	return t, nil
}

// Get returns one template version.
func (s *Store) Get(name string, version int) (Template, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.get(name, version)
}

func (s *Store) get(name string, version int) (Template, bool) {
	vs := s.byName[name]
	if version < 1 || version > len(vs) {
		return Template{}, false
	}
	return vs[version-1], true
}

// List returns every version of every template, names in lexical order,
// versions ascending — a deterministic catalogue for the API.
func (s *Store) List() []Template {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Template
	for _, n := range names {
		out = append(out, s.byName[n]...)
	}
	return out
}
