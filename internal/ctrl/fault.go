// First-class fault injection for the domain controllers. PR 2 proved the
// transaction engine's rollback with an ad-hoc test-local Domain wrapper
// hooked through Set.Wrap; chaos testing needs the same capability as a
// runtime-armable part of every controller, so the radio, transport, cloud
// and MEC controllers all embed a FaultArm and consult it at the top of
// their transactional verbs. Arming and clearing faults is cheap and safe
// for concurrent use; a disarmed arm costs one atomic load per verb.
//
// Injected failures are business outcomes, not crashes: a reserve fault
// surfaces as a typed *slice.RejectionCause (RejectFaultInjected) and a
// commit fault as an error that the engine classifies under the same code —
// so chaos scenarios can assert, end to end, that scripted faults reject
// slices through the normal taxonomy and roll back leak-free.
package ctrl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/slice"
)

// FaultStage selects the transactional verb an injected fault fires on.
type FaultStage int

// The injectable stages.
const (
	// FaultReserve fails Reserve before the substrate is touched.
	FaultReserve FaultStage = iota
	// FaultCommit fails Commit (after every domain reserved), exercising
	// the engine's full reverse-order rollback.
	FaultCommit
	// FaultResize fails Resize, exercising the epoch loop's restore path. It
	// fires only on a resize that reaches the domains: one the hysteresis
	// band or the radio quantum swallows never calls Resize.
	FaultResize
)

// String returns the stage name.
func (s FaultStage) String() string {
	switch s {
	case FaultReserve:
		return "reserve"
	case FaultCommit:
		return "commit"
	case FaultResize:
		return "resize"
	default:
		return fmt.Sprintf("FaultStage(%d)", int(s))
	}
}

// Fault arms one failure mode on a controller.
type Fault struct {
	// Stage is the verb that fails.
	Stage FaultStage
	// Remaining is how many times the fault fires before disarming itself.
	// <= 0 means it stays armed until ClearFaults.
	Remaining int
	// Detail is appended to the injected error text (defaults to
	// "injected fault").
	Detail string
}

// FaultInjector is the optional controller capability chaos programs drive:
// a domain that can be armed, at runtime, to fail its transactional verbs.
// All four built-in controllers implement it (via FaultArm). Discover it
// with a type assertion on a Domain — a capability query, exactly like
// LatencyContributor, never a domain-identity branch.
type FaultInjector interface {
	// InjectFault arms f, replacing any fault already armed on f.Stage.
	InjectFault(f Fault)
	// ClearFaults disarms every stage.
	ClearFaults()
}

// FaultArm is the embeddable fault state. The zero value is disarmed and
// ready to use. Controllers call fire() at the top of each verb; armed is
// an atomic fast path so the disarmed hot path never takes the mutex.
type FaultArm struct {
	armed atomic.Bool
	mu    sync.Mutex
	byStg map[FaultStage]*Fault
}

// InjectFault implements FaultInjector.
func (a *FaultArm) InjectFault(f Fault) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.byStg == nil {
		a.byStg = make(map[FaultStage]*Fault)
	}
	cp := f
	a.byStg[f.Stage] = &cp
	a.armed.Store(true)
}

// ClearFaults implements FaultInjector.
func (a *FaultArm) ClearFaults() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.byStg = nil
	a.armed.Store(false)
}

// fire reports whether an armed fault on stage should trigger now, consuming
// one shot from a counted fault.
func (a *FaultArm) fire(stage FaultStage) (string, bool) {
	if !a.armed.Load() {
		return "", false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	f, ok := a.byStg[stage]
	if !ok {
		return "", false
	}
	if f.Remaining > 0 {
		f.Remaining--
		if f.Remaining == 0 {
			delete(a.byStg, stage)
			if len(a.byStg) == 0 {
				a.armed.Store(false)
			}
		}
	}
	detail := f.Detail
	if detail == "" {
		detail = "injected fault"
	}
	return detail, true
}

// reserveFault returns the typed rejection for an armed reserve fault on the
// named domain, or nil.
func (a *FaultArm) reserveFault(domain string) *slice.RejectionCause {
	if detail, ok := a.fire(FaultReserve); ok {
		return slice.Rejectf(slice.RejectFaultInjected, domain, "%s: %s (reserve)", domain, detail)
	}
	return nil
}

// commitFault returns the error for an armed commit fault, or nil. The error
// carries a typed cause so the engine's classification preserves the
// fault-injected code.
func (a *FaultArm) commitFault(domain string) error {
	if detail, ok := a.fire(FaultCommit); ok {
		return slice.Rejectf(slice.RejectFaultInjected, domain, "%s: %s (commit)", domain, detail)
	}
	return nil
}

// resizeFault returns the error for an armed resize fault, or nil.
func (a *FaultArm) resizeFault(domain string) error {
	if detail, ok := a.fire(FaultResize); ok {
		return fmt.Errorf("%s: %s (resize)", domain, detail)
	}
	return nil
}

// Injector returns the domain's fault-injection capability, unwrapping any
// Set.Wrap decoration is the caller's concern — chaos drives the raw
// controllers from the Set directly.
func Injector(d Controller) (FaultInjector, bool) {
	fi, ok := d.(FaultInjector)
	return fi, ok
}
