// Package epc models the virtualized Evolved Packet Core instances the demo
// deploys per slice (OpenEPC 7 in the testbed): one vEPC — MME, HSS, SGW,
// PGW as VMs — is instantiated in the chosen data center, and "after few
// seconds, user devices associated with the PLMN-id of the new slices are
// allowed to connect to the respective services".
//
// The control surface the orchestrator needs is small: a stack template
// sized to the slice, instance lifecycle (deploying → running → stopped),
// and the UE attach procedure keyed by PLMN. Per-packet GTP handling is a
// data-plane concern and out of scope (see DESIGN.md).
package epc

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/slice"
)

// Component names of a vEPC.
const (
	CompMME = "mme"
	CompHSS = "hss"
	CompSGW = "sgw"
	CompPGW = "pgw"
)

// The three possible vEPC templates, precomputed so the admission hot path
// never rebuilds them. Callers must treat the shared Resources as read-only
// (CanFit and CreateStack only read them).
var vepcTemplates = func() [3]cloud.Template {
	var out [3]cloud.Template
	for i, gw := range []cloud.Flavor{cloud.FlavorSmall, cloud.FlavorMedium, cloud.FlavorLarge} {
		out[i] = cloud.Template{Resources: []cloud.TemplateResource{
			{Name: CompMME, Flavor: cloud.FlavorSmall},
			{Name: CompHSS, Flavor: cloud.FlavorSmall},
			{Name: CompSGW, Flavor: gw},
			{Name: CompPGW, Flavor: gw},
		}}
	}
	return out
}()

// Template returns the Heat-style stack template for a vEPC serving the
// given contracted throughput. Control-plane components (MME, HSS) are
// fixed-size; user-plane gateways (SGW, PGW) scale one flavor step per
// 50 Mbps, mirroring how the testbed dimensioned OpenEPC VMs. The returned
// template shares a precomputed read-only Resources slice.
func Template(throughputMbps float64) cloud.Template {
	switch {
	case throughputMbps > 100:
		return vepcTemplates[2]
	case throughputMbps > 50:
		return vepcTemplates[1]
	}
	return vepcTemplates[0]
}

// State is the vEPC instance lifecycle.
type State int

// Instance states.
const (
	// StateDeploying covers stack creation plus OpenEPC boot ("a few
	// seconds" in the demo).
	StateDeploying State = iota
	// StateRunning accepts UE attaches.
	StateRunning
	// StateStopped is terminal.
	StateStopped
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateDeploying:
		return "deploying"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// DefaultBootDelay is how long a vEPC takes from stack creation to serving
// attaches — the "few seconds" of the demo narrative.
const DefaultBootDelay = 5 * time.Second

// Errors surfaced by the attach procedure and lifecycle.
var (
	ErrNoServingEPC    = errors.New("epc: no running EPC broadcasts this PLMN")
	ErrNotRunning      = errors.New("epc: instance not running")
	ErrAlreadyAttached = errors.New("epc: UE already attached")
	ErrDuplicateID     = errors.New("epc: duplicate instance ID")
)

// UE is a user device identified by IMSI, subscribed to one PLMN (its
// slice).
type UE struct {
	IMSI string     `json:"imsi"`
	PLMN slice.PLMN `json:"plmn"`
}

// Bearer is the default EPS bearer created at attach.
type Bearer struct {
	UE UE `json:"ue"`
	// QCI is the QoS class identifier assigned from the slice class.
	QCI int `json:"qci"`
	// EBI is the EPS bearer identity (5..15 per 3GPP TS 24.301).
	EBI int `json:"ebi"`
	// Attached is when the bearer was established.
	Attached time.Time `json:"attached"`
}

// QCIFor maps slice service classes to standardized QCIs
// (3GPP TS 23.203 Table 6.1.7): automotive → 3 (real-time gaming/V2X-ish
// low latency), e-health → 2 (conversational video reliability), eMBB → 9
// (default best effort), mMTC → 8.
func QCIFor(c slice.ServiceClass) int {
	switch c {
	case slice.ClassAutomotive:
		return 3
	case slice.ClassEHealth:
		return 2
	case slice.ClassMMTC:
		return 8
	default:
		return 9
	}
}

// Instance is one deployed vEPC.
type Instance struct {
	mu sync.Mutex

	id     string
	plmn   slice.PLMN
	dc     string
	stack  string
	qci    int
	state  State
	booted time.Time

	bearers map[string]*Bearer // by IMSI
	nextEBI int

	// ProcessingDelayMs is the user-plane latency contribution of the
	// gateways, counted against the slice's end-to-end budget.
	ProcessingDelayMs float64
}

// NewInstance returns a vEPC in StateDeploying.
func NewInstance(id string, plmn slice.PLMN, dc, stackID string, class slice.ServiceClass) *Instance {
	return &Instance{
		id:                id,
		plmn:              plmn,
		dc:                dc,
		stack:             stackID,
		qci:               QCIFor(class),
		state:             StateDeploying,
		bearers:           make(map[string]*Bearer),
		nextEBI:           5,
		ProcessingDelayMs: 0.5,
	}
}

// ID returns the instance ID.
func (in *Instance) ID() string { return in.id }

// PLMN returns the PLMN the instance serves.
func (in *Instance) PLMN() slice.PLMN { return in.plmn }

// State returns the lifecycle state.
func (in *Instance) State() State {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.state
}

// MarkRunning transitions Deploying → Running at time now.
func (in *Instance) MarkRunning(now time.Time) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.state != StateDeploying {
		return fmt.Errorf("epc: %s cannot start from %v", in.id, in.state)
	}
	in.state = StateRunning
	in.booted = now
	return nil
}

// Stop transitions to Stopped, dropping all bearers.
func (in *Instance) Stop() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.state = StateStopped
	in.bearers = make(map[string]*Bearer)
}

// Attach runs the (abstracted) attach procedure: PLMN match is checked by
// the Registry; here the default bearer is created.
func (in *Instance) Attach(ue UE, now time.Time) (*Bearer, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.state != StateRunning {
		return nil, fmt.Errorf("%w: %s is %v", ErrNotRunning, in.id, in.state)
	}
	if _, ok := in.bearers[ue.IMSI]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyAttached, ue.IMSI)
	}
	b := &Bearer{UE: ue, QCI: in.qci, EBI: in.nextEBI, Attached: now}
	in.nextEBI++
	if in.nextEBI > 15 {
		in.nextEBI = 5 // EBI space wraps; fine at control-plane fidelity
	}
	in.bearers[ue.IMSI] = b
	return b, nil
}

// Attached returns the number of attached UEs.
func (in *Instance) Attached() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.bearers)
}

// Snapshot is the API view of an instance.
type Snapshot struct {
	ID         string     `json:"id"`
	PLMN       slice.PLMN `json:"plmn"`
	DataCenter string     `json:"data_center"`
	Stack      string     `json:"stack"`
	State      string     `json:"state"`
	AttachedUE int        `json:"attached_ue"`
}

// Snapshot captures the instance state.
func (in *Instance) Snapshot() Snapshot {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Snapshot{
		ID: in.id, PLMN: in.plmn, DataCenter: in.dc, Stack: in.stack,
		State: in.state.String(), AttachedUE: len(in.bearers),
	}
}

// Registry tracks all vEPC instances and routes UE attaches by PLMN — the
// role the shared MOCN RAN plays when it forwards NAS traffic to the core
// of the UE's selected PLMN.
type Registry struct {
	mu        sync.Mutex
	instances map[string]*Instance
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{instances: make(map[string]*Instance)} }

// Add registers an instance.
func (r *Registry) Add(in *Instance) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.instances[in.ID()]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, in.ID())
	}
	r.instances[in.ID()] = in
	return nil
}

// Remove stops and deregisters the instance; unknown IDs are a no-op.
func (r *Registry) Remove(id string) {
	r.mu.Lock()
	in, ok := r.instances[id]
	delete(r.instances, id)
	r.mu.Unlock()
	if ok {
		in.Stop()
	}
}

// Get returns the instance by ID.
func (r *Registry) Get(id string) (*Instance, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.instances[id]
	return in, ok
}

// ByPLMN returns the running instance serving the PLMN.
func (r *Registry) ByPLMN(p slice.PLMN) (*Instance, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range r.instances {
		if in.PLMN() == p && in.State() == StateRunning {
			return in, true
		}
	}
	return nil, false
}

// Attach routes the UE to the running instance broadcasting its PLMN.
func (r *Registry) Attach(ue UE, now time.Time) (*Bearer, error) {
	in, ok := r.ByPLMN(ue.PLMN)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoServingEPC, ue.PLMN)
	}
	return in.Attach(ue, now)
}

// All returns instances sorted by ID.
func (r *Registry) All() []*Instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Instance, 0, len(r.instances))
	for _, in := range r.instances {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// SizeSteps reports how many flavor steps the user-plane gateways of a
// template for mbps take — exposed for capacity planning tests.
func SizeSteps(mbps float64) int {
	switch {
	case mbps > 100:
		return 2
	case mbps > 50:
		return 1
	default:
		return 0
	}
}

// VCPUDemand returns the template vCPU total for a contracted throughput,
// the number admission control charges against the data center.
func VCPUDemand(throughputMbps float64) float64 {
	return Template(throughputMbps).TotalVCPUs()
}

// BootDelayFor scales the boot delay mildly with template size: larger
// gateways take longer to come up. Returned values stay in the "few
// seconds" the paper reports.
func BootDelayFor(throughputMbps float64) time.Duration {
	steps := SizeSteps(throughputMbps)
	return DefaultBootDelay + time.Duration(math.Round(float64(steps)*1.5))*time.Second
}
