// Package slice defines the network-slice data model shared by every layer
// of the orchestrator: the tenant-facing request (duration, maximum latency,
// expected throughput, price, SLA-violation penalty — exactly the dashboard
// knobs listed in Section 3 of the paper), the slice lifecycle state machine,
// the PLMN allocator that maps slices onto dedicated PLMN IDs (the trick the
// demo uses in place of commercial slicing equipment), and revenue/penalty
// accounting.
package slice

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// ID uniquely identifies a slice within one orchestrator.
type ID string

// ServiceClass coarsely describes the vertical the slice serves. It drives
// the default traffic shape and the latitude the overbooking engine has.
type ServiceClass int

// Service classes named after the verticals in the paper's introduction.
const (
	// ClassEMBB is throughput-oriented mobile broadband.
	ClassEMBB ServiceClass = iota
	// ClassAutomotive is a latency-critical (URLLC-like) vertical slice.
	ClassAutomotive
	// ClassEHealth is an e-health vertical: moderate throughput, strict
	// reliability, diurnal demand.
	ClassEHealth
	// ClassMMTC is massive machine-type: many devices, low per-device rate.
	ClassMMTC
)

var classNames = map[ServiceClass]string{
	ClassEMBB:       "eMBB",
	ClassAutomotive: "automotive",
	ClassEHealth:    "e-health",
	ClassMMTC:       "mMTC",
}

// ParseClass parses a service-class name, case-insensitively: one of the
// names String returns, "ehealth" for e-health, or "" for eMBB.
func ParseClass(s string) (ServiceClass, error) {
	switch {
	case s == "":
		return ClassEMBB, nil
	case strings.EqualFold(s, "ehealth"):
		return ClassEHealth, nil
	}
	for c, name := range classNames {
		if strings.EqualFold(s, name) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown service class %q", s)
}

// String returns the class name.
func (c ServiceClass) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("ServiceClass(%d)", int(c))
}

// SLA is the service-level agreement of one slice: the request fields the
// demo dashboard exposes plus the service class.
type SLA struct {
	// ThroughputMbps is the expected (peak) downlink throughput the tenant
	// contracts for. Peak provisioning reserves exactly this much; the
	// overbooking engine may reserve less when forecasts allow.
	ThroughputMbps float64
	// MaxLatencyMs is the maximum end-to-end latency allowed, radio
	// excluded: it constrains the transport path plus data-center choice.
	MaxLatencyMs float64
	// Duration is the requested slice lifetime.
	Duration time.Duration
	// PriceEUR is the price the tenant is willing to pay for the whole
	// slice duration.
	PriceEUR float64
	// PenaltyEUR is the penalty the operator owes for each SLA-violation
	// epoch (a monitoring interval in which delivered < demanded and
	// demanded <= contracted throughput).
	PenaltyEUR float64
	// Class selects the vertical profile.
	Class ServiceClass
	// EdgeCompute indicates the tenant requires mobile-edge (not core
	// cloud) compute regardless of the latency budget.
	EdgeCompute bool
}

// Kbps and MicroEUR are the units every capacity and money book is kept in
// (the core's ledger and gain totals, the federation's headroom books, the
// WAL fields that carry them): exact int64 arithmetic, so a reserve and its
// release cancel to the bit in any order. Floats are converted exactly where
// they enter a book — SLA fields, admission estimates and forecast targets,
// RAN-quantized allocations — and books are printed as Mbps/EUR floats only
// at the reporting edge.
type (
	Kbps     int64
	MicroEUR int64
)

// ToKbps rounds a throughput in Mbps to the nearest book unit.
func ToKbps(mbps float64) Kbps { return Kbps(math.Round(mbps * 1e3)) }

// Mbps renders the book value for reports.
func (k Kbps) Mbps() float64 { return float64(k) / 1e3 }

// ToMicroEUR rounds an amount in EUR to the nearest book unit.
func ToMicroEUR(eur float64) MicroEUR { return MicroEUR(math.Round(eur * 1e6)) }

// EUR renders the book value for reports.
func (m MicroEUR) EUR() float64 { return float64(m) / 1e6 }

// Input bounds that keep the books inside int64: 2^20 simultaneously live
// slices at the bound still sum below 2^63 in either unit. Throughput has a
// lower bound too, since anything under half a unit would enter the books
// as zero.
const (
	MaxThroughputMbps = 1e9
	MinThroughputMbps = 1e-3
	MaxMoneyEUR       = 1e6
)

// Validate reports the first problem with the SLA, or nil. Non-finite
// numbers are rejected outright: a NaN throughput passes every `<= 0` gate
// yet poisons the capacity ledger, so finiteness is checked first.
func (s SLA) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"throughput", s.ThroughputMbps},
		{"max latency", s.MaxLatencyMs},
		{"price", s.PriceEUR},
		{"penalty", s.PenaltyEUR},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("slice: %s %v must be finite", f.name, f.v)
		}
	}
	switch {
	case s.ThroughputMbps <= 0:
		return fmt.Errorf("slice: throughput %.2f Mbps must be positive", s.ThroughputMbps)
	case s.MaxLatencyMs <= 0:
		return fmt.Errorf("slice: max latency %.2f ms must be positive", s.MaxLatencyMs)
	case s.Duration <= 0:
		return fmt.Errorf("slice: duration %v must be positive", s.Duration)
	case s.PriceEUR < 0:
		return fmt.Errorf("slice: price %.2f must be non-negative", s.PriceEUR)
	case s.PenaltyEUR < 0:
		return fmt.Errorf("slice: penalty %.2f must be non-negative", s.PenaltyEUR)
	case s.ThroughputMbps < MinThroughputMbps || s.ThroughputMbps > MaxThroughputMbps:
		return fmt.Errorf("slice: throughput %g Mbps outside [%g, %g]", s.ThroughputMbps, MinThroughputMbps, MaxThroughputMbps)
	case s.PriceEUR > MaxMoneyEUR:
		return fmt.Errorf("slice: price %g EUR above the limit %g", s.PriceEUR, MaxMoneyEUR)
	case s.PenaltyEUR > MaxMoneyEUR:
		return fmt.Errorf("slice: penalty %g EUR above the limit %g", s.PenaltyEUR, MaxMoneyEUR)
	}
	return nil
}

// Request is a tenant's ask for a slice, as submitted through the dashboard
// or the REST API.
type Request struct {
	// Tenant names the requesting business player (vertical industry).
	Tenant string
	// SLA carries the contractual parameters.
	SLA SLA
	// Arrival is when the request reached the orchestrator.
	Arrival time.Time
}

// Validate reports the first problem with the request, or nil.
func (r Request) Validate() error {
	if r.Tenant == "" {
		return errors.New("slice: request missing tenant")
	}
	return r.SLA.Validate()
}

// State is a stage of the slice lifecycle.
type State int

// Lifecycle states. Transitions are enforced by Slice.transition; see
// validTransitions.
const (
	// StatePending is a submitted request awaiting admission control.
	StatePending State = iota
	// StateRejected means admission control turned the request down.
	StateRejected
	// StateAdmitted means resources were granted but installation across
	// the three domains has not finished.
	StateAdmitted
	// StateInstalling covers PRB reservation, path setup, stack deployment
	// and EPC bring-up.
	StateInstalling
	// StateActive means UEs can attach and traffic flows.
	StateActive
	// StateReconfiguring marks an overbooking-driven resize in progress.
	StateReconfiguring
	// StateTerminated is the terminal state after expiry or deletion.
	StateTerminated
)

var stateNames = map[State]string{
	StatePending:       "pending",
	StateRejected:      "rejected",
	StateAdmitted:      "admitted",
	StateInstalling:    "installing",
	StateActive:        "active",
	StateReconfiguring: "reconfiguring",
	StateTerminated:    "terminated",
}

// String returns the lowercase state name used in the API and dashboard.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

var validTransitions = map[State][]State{
	StatePending:       {StateRejected, StateAdmitted},
	StateAdmitted:      {StateInstalling, StateTerminated},
	StateInstalling:    {StateActive, StateTerminated},
	StateActive:        {StateReconfiguring, StateTerminated},
	StateReconfiguring: {StateActive, StateTerminated},
}

// ErrBadTransition is wrapped by transition errors.
var ErrBadTransition = errors.New("slice: invalid state transition")

// Allocation records what the orchestrator currently reserves for the slice
// in each domain. AllocatedMbps may be below SLA.ThroughputMbps when the
// slice is overbooked.
type Allocation struct {
	// AllocatedMbps is the radio-domain throughput reservation.
	AllocatedMbps float64
	// PRBs is the number of physical resource blocks reserved per eNB.
	PRBs map[string]int
	// PathIDs names the transport reservations (one per eNB-to-DC path).
	PathIDs []string
	// PathLatencyMs is the worst transport latency over the chosen paths.
	PathLatencyMs float64
	// DataCenter is where the slice's EPC stack runs ("edge" or "core" DC name).
	DataCenter string
	// StackID is the Heat-style stack holding the vEPC VMs.
	StackID string
	// EPCID is the deployed vEPC instance.
	EPCID string
	// MECAppID is the edge application placed for the slice when the
	// optional MEC compute domain is registered ("" otherwise).
	MECAppID string
	// PLMN is the dedicated PLMN the slice is broadcast under.
	PLMN PLMN
}

// Clone returns a deep copy (the PRB map is copied).
func (a Allocation) Clone() Allocation {
	b := a
	if a.PRBs != nil {
		b.PRBs = make(map[string]int, len(a.PRBs))
		for k, v := range a.PRBs {
			b.PRBs[k] = v
		}
	}
	b.PathIDs = append([]string(nil), a.PathIDs...)
	return b
}

// Slice is one admitted (or pending/rejected) network slice with its full
// bookkeeping. All methods are safe for concurrent use.
type Slice struct {
	mu sync.Mutex

	id      ID
	req     Request
	state   State
	reason  string          // rejection or termination reason (human-readable)
	cause   *RejectionCause // typed rejection cause (nil unless rejected)
	created time.Time
	starts  time.Time
	expires time.Time

	alloc Allocation

	// Accounting (Section 3: "gains vs. penalties").
	violationEpochs int
	servedEpochs    int
	penaltyEUR      float64
	demandMbps      float64 // last measured demand
	servedMbps      float64 // last delivered throughput

	// version counts mutations: every writer bumps it inside the critical
	// section that changes the slice. frag is json.Marshal(Snapshot()) as of
	// fragVersion, current while fragVersion == version (see SnapshotJSON).
	version     uint64
	frag        []byte
	fragVersion uint64
}

// New creates a pending slice for the request. The caller (admission engine)
// assigns the ID.
func New(id ID, req Request) (*Slice, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &Slice{
		id:      id,
		req:     req,
		state:   StatePending,
		created: req.Arrival,
	}, nil
}

// ID returns the slice identifier.
func (s *Slice) ID() ID { return s.id }

// Request returns the originating request.
func (s *Slice) Request() Request { return s.req }

// SLA returns the contract.
func (s *Slice) SLA() SLA { return s.req.SLA }

// Tenant returns the owning tenant.
func (s *Slice) Tenant() string { return s.req.Tenant }

// State returns the current lifecycle state.
func (s *Slice) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Reason returns the rejection/termination reason if any.
func (s *Slice) Reason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reason
}

// Expiry returns when the slice's contracted duration ends (zero until
// activation).
func (s *Slice) Expiry() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expires
}

// Allocation returns a deep copy of the current multi-domain allocation:
// the caller may keep or mutate it freely. Callers that need one scalar use
// the narrow accessors below (AllocatedMbps, PLMN, DataCenter, EPCID), which
// copy nothing.
func (s *Slice) Allocation() Allocation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.Clone()
}

// UpdateAllocation runs fn on the live allocation under the slice lock — the
// in-place mutation path of the install, resize and restoration engines.
// Containers fn stores into the allocation (a PRB map, a path-ID slice)
// become the slice's property: the caller must hold the only reference and
// drop it. fn must not retain the pointer or call back into the slice.
// Readers are unaffected: Allocation, Snapshot and Persist hand out deep
// copies, never the live containers.
func (s *Slice) UpdateAllocation(fn func(*Allocation)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	fn(&s.alloc)
}

// AllocatedMbps returns the current radio throughput reservation without
// cloning the whole allocation (hot path: lifecycle event publication, the
// resize hysteresis test).
func (s *Slice) AllocatedMbps() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.AllocatedMbps
}

// PLMN returns the dedicated PLMN the slice is broadcast under (zero until
// installation).
func (s *Slice) PLMN() PLMN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.PLMN
}

// DataCenter returns the data center hosting the slice's EPC stack ("" until
// installation).
func (s *Slice) DataCenter() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.DataCenter
}

// EPCID returns the deployed vEPC instance ("" until installation).
func (s *Slice) EPCID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.EPCID
}

// ResizeView is what a reconfiguration decides on and addresses the domains
// with, cut in the critical section that decides it: the slice's state
// before the decision, its radio reservation, the target clamped to
// [floor, contract], and where it is installed.
type ResizeView struct {
	State         State
	AllocatedMbps float64
	TargetMbps    float64
	PLMN          PLMN
	DataCenter    string
}

// BeginResize decides a reconfiguration toward targetMbps in one critical
// section. It cuts the view and clamps the target to [floorMbps, contract].
// live reports whether the slice holds a reservation to resize (admitted,
// installing or active); resize whether the clamped target also leaves the
// hysteresis band of ±threshold·contract around the current reservation.
// When resize is true an Active slice has entered Reconfiguring (one still
// installing is resized in place, its data plane not live yet); the caller
// ends it with CommitReconfigure, or EndReconfigure if a domain refuses.
func (s *Slice) BeginResize(targetMbps, floorMbps, threshold float64) (v ResizeView, live, resize bool) {
	contract := s.req.SLA.ThroughputMbps
	if targetMbps < floorMbps {
		targetMbps = floorMbps
	}
	if targetMbps > contract {
		targetMbps = contract
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v = ResizeView{State: s.state, AllocatedMbps: s.alloc.AllocatedMbps, TargetMbps: targetMbps, PLMN: s.alloc.PLMN, DataCenter: s.alloc.DataCenter}
	switch s.state {
	case StateAdmitted, StateInstalling, StateActive:
	default:
		return v, false, false
	}
	if diff := targetMbps - v.AllocatedMbps; diff > -contract*threshold && diff < contract*threshold {
		return v, true, false
	}
	if s.state == StateActive {
		s.version++
		s.state = StateReconfiguring
	}
	return v, true, true
}

// EventView is what a lifecycle event reports about the slice, cut in one
// critical section: the state after the transition being announced, the
// radio reservation and the rejection code ("" unless rejected).
type EventView struct {
	State         State
	AllocatedMbps float64
	RejectCode    RejectCode
}

// EventView returns the slice's event view.
func (s *Slice) EventView() EventView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eventViewLocked()
}

func (s *Slice) eventViewLocked() EventView {
	v := EventView{State: s.state, AllocatedMbps: s.alloc.AllocatedMbps}
	if s.cause != nil {
		v.RejectCode = s.cause.Code
	}
	return v
}

// CommitReconfigure is the write half of a reconfiguration that went
// through, in one critical section: fn records the new reservation in the
// live allocation (under UpdateAllocation's rules), a Reconfiguring slice
// returns to Active (one resized in place, while installing, keeps its
// state), and the view the resize event reports is cut.
func (s *Slice) CommitReconfigure(fn func(*Allocation)) EventView {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	fn(&s.alloc)
	if s.state == StateReconfiguring {
		s.state = StateActive
	}
	return s.eventViewLocked()
}

func (s *Slice) transition(to State, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transitionLocked(to, reason)
}

// transitionLocked moves the slice to state to. Transitions that stamp more
// than the state (Reject, Activate) do so in the same critical section, so no
// reader sees the new state without what comes with it. Caller holds s.mu.
func (s *Slice) transitionLocked(to State, reason string) error {
	for _, ok := range validTransitions[s.state] {
		if ok == to {
			s.version++
			s.state = to
			if reason != "" {
				s.reason = reason
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %s -> %s (slice %s)", ErrBadTransition, s.state, to, s.id)
}

// Reject moves Pending -> Rejected with a typed cause: the cause's detail
// becomes the human-readable reason and the code surfaces through
// Cause/Snapshot. A nil cause is recorded as RejectOther.
func (s *Slice) Reject(cause *RejectionCause) error {
	if cause == nil {
		cause = &RejectionCause{Code: RejectOther, Detail: "rejected"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.transitionLocked(StateRejected, cause.Detail); err != nil {
		return err
	}
	s.cause = cause
	return nil
}

// Cause returns the typed rejection cause, if the slice was rejected.
func (s *Slice) Cause() (RejectionCause, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cause == nil {
		return RejectionCause{}, false
	}
	return *s.cause, true
}

// Admit moves Pending -> Admitted.
func (s *Slice) Admit() error { return s.transition(StateAdmitted, "") }

// BeginInstall moves Admitted -> Installing.
func (s *Slice) BeginInstall() error { return s.transition(StateInstalling, "") }

// Activate moves Installing -> Active and stamps the activity window.
func (s *Slice) Activate(now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.transitionLocked(StateActive, ""); err != nil {
		return err
	}
	s.starts = now
	s.expires = now.Add(s.req.SLA.Duration)
	return nil
}

// EndReconfigure moves Reconfiguring -> Active.
func (s *Slice) EndReconfigure() error { return s.transition(StateActive, "") }

// Terminate moves any live state to Terminated.
func (s *Slice) Terminate(reason string) error { return s.transition(StateTerminated, reason) }

// RecordEpoch accounts one monitoring epoch: the measured demand and the
// throughput actually delivered. A violation is charged when the slice
// demanded no more than its contract yet received measurably less than it
// demanded — i.e. the operator squeezed an overbooked slice too hard.
// With activeOnly it accounts only an Active slice (the live epoch, which
// drops a slice torn down since it was measured); replay passes false, to
// account an epoch the log says was counted whatever happened to the slice
// after it. It reports whether the epoch was counted and whether it was a
// violation.
func (s *Slice) RecordEpoch(demandMbps, servedMbps float64, activeOnly bool) (counted, violated bool) {
	const tolerance = 1e-6
	s.mu.Lock()
	defer s.mu.Unlock()
	if activeOnly && s.state != StateActive {
		return false, false
	}
	s.version++
	s.servedEpochs++
	s.demandMbps = demandMbps
	s.servedMbps = servedMbps
	contract := s.req.SLA.ThroughputMbps
	entitled := demandMbps
	if entitled > contract {
		entitled = contract
	}
	if servedMbps+tolerance < entitled {
		s.violationEpochs++
		s.penaltyEUR += s.req.SLA.PenaltyEUR
		return true, true
	}
	return true, false
}

// Accounting summarises the money side of the slice.
type Accounting struct {
	PriceEUR        float64
	PenaltyEUR      float64
	NetEUR          float64
	ServedEpochs    int
	ViolationEpochs int
	ViolationRate   float64
	DemandMbps      float64
	ServedMbps      float64
}

// Accounting returns the current revenue/penalty tally. Price counts only
// for slices that got past admission.
func (s *Slice) Accounting() Accounting {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accountingLocked()
}

func (s *Slice) accountingLocked() Accounting {
	a := Accounting{
		PenaltyEUR:      s.penaltyEUR,
		ServedEpochs:    s.servedEpochs,
		ViolationEpochs: s.violationEpochs,
		DemandMbps:      s.demandMbps,
		ServedMbps:      s.servedMbps,
	}
	if s.state != StatePending && s.state != StateRejected {
		a.PriceEUR = s.req.SLA.PriceEUR
	}
	a.NetEUR = a.PriceEUR - a.PenaltyEUR
	if s.servedEpochs > 0 {
		a.ViolationRate = float64(s.violationEpochs) / float64(s.servedEpochs)
	}
	return a
}

// Persisted is the complete durable image of a slice — every private
// field the lifecycle and accounting machinery maintains — used by the
// write-ahead-log checkpoint. Unlike Snapshot (a lossy API view), a
// Persisted round-trips: Rehydrate reconstructs a Slice that behaves
// identically to the original.
type Persisted struct {
	ID              ID              `json:"id"`
	Request         Request         `json:"request"`
	State           State           `json:"state"`
	Reason          string          `json:"reason,omitempty"`
	Cause           *RejectionCause `json:"cause,omitempty"`
	Created         time.Time       `json:"created"`
	Starts          time.Time       `json:"starts,omitempty"`
	Expires         time.Time       `json:"expires,omitempty"`
	Allocation      Allocation      `json:"allocation"`
	ViolationEpochs int             `json:"violation_epochs,omitempty"`
	ServedEpochs    int             `json:"served_epochs,omitempty"`
	PenaltyEUR      float64         `json:"penalty_eur,omitempty"`
	DemandMbps      float64         `json:"demand_mbps,omitempty"`
	ServedMbps      float64         `json:"served_mbps,omitempty"`
}

// Persist captures the slice's full durable image atomically.
func (s *Slice) Persist() Persisted {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := Persisted{
		ID:              s.id,
		Request:         s.req,
		State:           s.state,
		Reason:          s.reason,
		Created:         s.created,
		Starts:          s.starts,
		Expires:         s.expires,
		Allocation:      s.alloc.Clone(),
		ViolationEpochs: s.violationEpochs,
		ServedEpochs:    s.servedEpochs,
		PenaltyEUR:      s.penaltyEUR,
		DemandMbps:      s.demandMbps,
		ServedMbps:      s.servedMbps,
	}
	if s.cause != nil {
		c := *s.cause
		p.Cause = &c
	}
	return p
}

// Rehydrate reconstructs a slice from its durable image, bypassing the
// transition machinery — recovery restores the recorded state directly.
func Rehydrate(p Persisted) *Slice {
	s := &Slice{
		id:              p.ID,
		req:             p.Request,
		state:           p.State,
		reason:          p.Reason,
		created:         p.Created,
		starts:          p.Starts,
		expires:         p.Expires,
		alloc:           p.Allocation.Clone(),
		violationEpochs: p.ViolationEpochs,
		servedEpochs:    p.ServedEpochs,
		penaltyEUR:      p.PenaltyEUR,
		demandMbps:      p.DemandMbps,
		servedMbps:      p.ServedMbps,
	}
	if p.Cause != nil {
		c := *p.Cause
		s.cause = &c
	}
	return s
}

// Snapshot is an immutable view of a slice for APIs and the dashboard.
type Snapshot struct {
	ID     ID     `json:"id"`
	Tenant string `json:"tenant"`
	Class  string `json:"class"`
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
	// RejectCode is the stable typed rejection cause ("" unless rejected).
	RejectCode RejectCode `json:"reject_code,omitempty"`
	SLA        SLA        `json:"sla"`
	Allocation Allocation `json:"allocation"`
	Accounting Accounting `json:"accounting"`
	Expires    time.Time  `json:"expires"`
}

// Snapshot captures the slice state atomically: one critical section, so
// the state, what the transition into it stamped (reject code, expiry) and
// the accounting derived from it always agree.
func (s *Slice) Snapshot() Snapshot {
	snap, _ := s.SnapshotIf(Filter{})
	return snap
}

// SnapshotIf is Snapshot for a slice that still matches f: the predicates a
// transition can change are checked and the snapshot cut under one lock, so a
// listing never returns a snapshot that contradicts its own query.
func (s *Slice) SnapshotIf(f Filter) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !f.matchLocked(s) {
		return Snapshot{}, false
	}
	return s.snapshotLocked(), true
}

func (s *Slice) snapshotLocked() Snapshot {
	snap := Snapshot{
		ID:         s.id,
		Tenant:     s.req.Tenant,
		Class:      s.req.SLA.Class.String(),
		State:      s.state.String(),
		Reason:     s.reason,
		SLA:        s.req.SLA,
		Allocation: s.alloc.Clone(),
		Accounting: s.accountingLocked(),
		Expires:    s.expires,
	}
	if s.cause != nil {
		snap.RejectCode = s.cause.Code
	}
	return snap
}

// SnapshotJSON returns json.Marshal(s.Snapshot()), encoded at most once per
// mutation: while no writer has touched the slice, every call returns the
// same bytes. The result is shared with every other reader and must not be
// modified (its capacity equals its length, so an append copies).
func (s *Slice) SnapshotJSON() ([]byte, error) { return s.SnapshotJSONIf(Filter{}) }

// SnapshotJSONIf is SnapshotJSON under SnapshotIf's rule; a slice that no
// longer matches f yields nil bytes and no error.
//
// The snapshot is cut under the lock and encoded outside it, and the
// encoding is published only if the mutation counter still reads what it
// read at the cut — a reader that lost a race to a writer returns its own
// (consistent, already superseded) bytes and leaves the cache to the next
// reader. A published fragment is never written again, only replaced.
func (s *Slice) SnapshotJSONIf(f Filter) ([]byte, error) {
	s.mu.Lock()
	if !f.matchLocked(s) {
		s.mu.Unlock()
		return nil, nil
	}
	if s.frag != nil && s.fragVersion == s.version {
		frag := s.frag
		s.mu.Unlock()
		return frag, nil
	}
	snap, version := s.snapshotLocked(), s.version
	s.mu.Unlock()

	frag, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("slice: encode snapshot of %s: %w", s.id, err)
	}
	frag = frag[:len(frag):len(frag)]
	s.mu.Lock()
	if s.version == version {
		s.frag, s.fragVersion = frag, version
	}
	s.mu.Unlock()
	return frag, nil
}

// Filter is the list query's predicates over one slice: tenant, lifecycle
// state and rejection code. The zero Filter matches every slice.
type Filter struct {
	tenant  string
	code    RejectCode
	byState bool
	state   State
}

// NewFilter builds a filter from the API forms; "" leaves a predicate open.
// The state name is parsed here, once; a name no state has matches nothing.
func NewFilter(tenant, state string, code RejectCode) Filter {
	f := Filter{tenant: tenant, code: code}
	if state != "" {
		f.byState, f.state = true, State(-1)
		for st, name := range stateNames {
			if name == state {
				f.state = st
			}
		}
	}
	return f
}

// matchLocked checks the predicates a transition can change. Caller holds
// s.mu.
func (f Filter) matchLocked(s *Slice) bool {
	if f.byState && s.state != f.state {
		return false
	}
	return f.code == "" || (s.cause != nil && s.cause.Code == f.code)
}

// Matches reports whether the slice currently satisfies f.
func (s *Slice) Matches(f Filter) bool {
	if f.tenant != "" && s.req.Tenant != f.tenant {
		return false
	}
	if !f.byState && f.code == "" {
		return true // the tenant never changes: nothing to lock for
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return f.matchLocked(s)
}
