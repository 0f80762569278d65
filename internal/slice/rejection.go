package slice

import (
	"errors"
	"fmt"
	"sync"
)

// RejectCode is the stable, machine-readable taxonomy of admission-rejection
// causes. The codes are the dashboard's histogram buckets, the REST API's
// `reject_code` field and slicectl's bracketed tag — they are part of the
// public surface and must stay stable across releases; the human-readable
// detail string may change freely.
//
// RejectCode implements error so the codes double as errors.Is sentinels:
//
//	if errors.Is(cause, slice.RejectRadioCapacity) { ... }
type RejectCode string

// The rejection taxonomy. Every domain classifies its own failures; the
// engine never inspects detail strings.
const (
	// RejectPLMNExhausted: no free PLMN broadcast slot (orchestrator
	// allocator or a cell's MOCN SIB1 list).
	RejectPLMNExhausted RejectCode = "plmn-exhausted"
	// RejectRadioCapacity: the radio domain cannot carry the estimated
	// load (capacity-ledger check or PRB reservation failure).
	RejectRadioCapacity RejectCode = "radio-capacity"
	// RejectLatencyUnmeetable: no placement satisfies the latency budget.
	RejectLatencyUnmeetable RejectCode = "latency-unmeetable"
	// RejectTransportCapacity: no feasible transport path with enough
	// residual bandwidth.
	RejectTransportCapacity RejectCode = "transport-capacity"
	// RejectCloudCapacity: the chosen data center cannot host the vEPC.
	RejectCloudCapacity RejectCode = "cloud-capacity"
	// RejectMECCapacity: the edge MEC pool cannot place the slice's app.
	RejectMECCapacity RejectCode = "mec-capacity"
	// RejectRevenuePolicy: the revenue-maximization policy turned the
	// request down (density floor, penalty-aware check, batch admission).
	RejectRevenuePolicy RejectCode = "revenue-policy"
	// RejectFaultInjected: a chaos-armed fault (ctrl.FaultInjector) failed a
	// domain's transactional verb. Chaos scenarios assert on this bucket to
	// prove scripted faults reject through the normal taxonomy.
	RejectFaultInjected RejectCode = "fault-injected"
	// RejectClusterUnavailable: the federation tier cannot place the request
	// because a required member cluster is partitioned, failed, or unknown.
	RejectClusterUnavailable RejectCode = "cluster-unavailable"
	// RejectInternal: a domain panicked mid-transaction (double-release or
	// substrate corruption); the engine recovered and converted the panic to
	// a typed rejection instead of crashing the orchestrator.
	RejectInternal RejectCode = "internal"
	// RejectOther: unclassified (fault-injection wrappers, future domains
	// without a dedicated code).
	RejectOther RejectCode = "other"
)

// RejectCodes is the taxonomy in a fixed order, RejectOther last: a code's
// Ordinal indexes fixed-size per-code counters (the core's lock-free
// rejection histogram).
var RejectCodes = [...]RejectCode{
	RejectPLMNExhausted, RejectRadioCapacity, RejectLatencyUnmeetable, RejectTransportCapacity,
	RejectCloudCapacity, RejectMECCapacity, RejectRevenuePolicy, RejectFaultInjected,
	RejectClusterUnavailable, RejectInternal, RejectOther,
}

// Ordinal returns the code's position in RejectCodes; a code outside the
// taxonomy counts as RejectOther.
func (c RejectCode) Ordinal() int {
	for i, k := range RejectCodes {
		if k == c {
			return i
		}
	}
	return len(RejectCodes) - 1
}

// Error implements error, making each code an errors.Is target.
func (c RejectCode) Error() string { return string(c) }

// RejectionCause is a typed admission rejection: a stable code, the domain
// that raised it and the human-readable detail shown on the dashboard. It
// implements error and participates in errors.Is/errors.As chains — both
// `errors.Is(cause, slice.RejectRadioCapacity)` and unwrapping to the
// underlying substrate error work.
type RejectionCause struct {
	// Code is the stable taxonomy bucket.
	Code RejectCode `json:"code"`
	// Domain names the domain that classified the failure ("" for
	// orchestrator-level policy rejections).
	Domain string `json:"domain,omitempty"`
	// Detail is the human-readable reason.
	Detail string `json:"detail"`

	err error // wrapped substrate error, if any
	// pooled marks causes owned by the fast-reject pool: RecycleRejection
	// returns only these, so shared causes (memoized feasibility outcomes,
	// causes stored in slice state) are never recycled under a reader.
	pooled bool
}

// Rejectf builds a cause with a formatted detail. %w verbs wrap the
// underlying error into the cause's chain.
func Rejectf(code RejectCode, domain, format string, args ...any) *RejectionCause {
	err := fmt.Errorf(format, args...)
	return &RejectionCause{Code: code, Domain: domain, Detail: err.Error(), err: err}
}

// Error implements error.
func (c *RejectionCause) Error() string { return c.Detail }

// Unwrap exposes the underlying substrate error to errors.Is/As.
func (c *RejectionCause) Unwrap() error { return c.err }

// Is matches RejectCode sentinels and other causes by code.
func (c *RejectionCause) Is(target error) bool {
	switch t := target.(type) {
	case RejectCode:
		return c.Code == t
	case *RejectionCause:
		return t != nil && c.Code == t.Code
	}
	return false
}

// causePool backs the zero-allocation fast-reject path: rejection storms
// produce one cause per probe, and pooling them keeps the storm allocation
// free in steady state.
var causePool = sync.Pool{New: func() any { return new(RejectionCause) }}

// PooledRejection returns a pooled cause carrying a prebuilt detail string
// (no formatting on the hot path). The caller owns it until handing it to
// RecycleRejection; it must not be stored anywhere that outlives that call.
func PooledRejection(code RejectCode, domain, detail string) *RejectionCause {
	c := causePool.Get().(*RejectionCause)
	c.Code, c.Domain, c.Detail, c.err, c.pooled = code, domain, detail, nil, true
	return c
}

// RecycleRejection returns a PooledRejection cause to the pool. Causes built
// by Rejectf/CauseOf — including memoized feasibility outcomes shared across
// requests — are left for the garbage collector, so callers may pass any
// cause they were handed without tracking its provenance.
func RecycleRejection(c *RejectionCause) {
	if c == nil || !c.pooled {
		return
	}
	*c = RejectionCause{}
	causePool.Put(c)
}

// CauseOf coerces err into a typed cause: an existing *RejectionCause in
// err's chain is returned as-is, anything else is wrapped under code.
func CauseOf(err error, code RejectCode, domain string) *RejectionCause {
	if err == nil {
		return nil
	}
	var c *RejectionCause
	if errors.As(err, &c) {
		return c
	}
	return &RejectionCause{Code: code, Domain: domain, Detail: err.Error(), err: err}
}
