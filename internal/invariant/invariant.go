// Package invariant implements the cross-domain invariant auditor: an
// always-on verification layer the orchestrator core drives (enabled via
// core.Config.Audit) that proves the capacity ledgers, domain reservations
// and lifecycle event stream stay mutually consistent under every workload
// — steady state, overload, and the scripted failure timelines of
// internal/chaos.
//
// The auditor checks five invariant families:
//
//	conservation   per domain, Σ reserved + free == pool and no negative
//	               slack: each substrate's incremental books (eNB used-PRB
//	               counters, link bandwidth sums, host vCPU/RAM/disk, MEC
//	               CPU shares) are cross-checked against ground truth by
//	               the substrate's own AuditConservation, and the
//	               orchestrator's radio capacity ledger must equal the sum
//	               of live slices' ledger entries.
//	leak-freedom   every resource held in any substrate maps back to a
//	               live slice, and every live slice's recorded allocation
//	               is actually held — nothing survives an abort, teardown
//	               or restoration pass.
//	event order    the lifecycle event stream is gap-free (sequence
//	               numbers are consecutive) and every per-slice transition
//	               it announces is legal under the slice state machine.
//	epoch          epoch snapshots are strictly monotone in epoch number
//	               and non-decreasing in time.
//	shard equiv.   outcomes are identical at any shard count — proved by
//	               the scenario-level equivalence tests, not by a runtime
//	               check.
//
// The package deliberately does not import internal/core: the core passes
// neutral SliceView records plus its testbed, so the dependency points
// core -> invariant and the auditor stays reusable from tests that build
// substrates directly.
package invariant

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/ctrl"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Check names the invariant family ("ledger", "conservation", "leak",
	// "event-gap", "state-machine", "epoch-monotonic", the federation's
	// "fed-ledger" and "fed-leak", and the tiers' "fold").
	Check string `json:"check"`
	// Detail is the human-readable discrepancy.
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// violationLimit bounds how many violations are retained; further breaches
// only bump the dropped counter. A broken invariant tends to cascade, and the
// first violations are the diagnostic ones.
const violationLimit = 256

// Options tunes the auditor.
type Options struct {
	// OnViolation, when non-nil, is called synchronously for every breach
	// (tests install t.Errorf-style hooks to fail fast with context).
	OnViolation func(Violation)
}

// Auditor collects invariant violations. All methods are safe for
// concurrent use; the mutex is a leaf — the auditor never calls back into
// the orchestrator or the substrates while holding it (substrate reads
// happen before recording).
type Auditor struct {
	onViolation func(Violation)

	mu         sync.Mutex
	violations []Violation
	dropped    int

	// Event-stream state.
	lastSeq   int64
	lastState map[slice.ID]string

	// Epoch-snapshot state.
	lastEpoch int
	lastAt    time.Time

	sweeps int
	events int64
}

// New returns an auditor.
func New(opts Options) *Auditor {
	return &Auditor{
		onViolation: opts.OnViolation,
		lastState:   make(map[slice.ID]string),
	}
}

// record registers one violation.
func (a *Auditor) record(check, format string, args ...any) {
	v := Violation{Check: check, Detail: fmt.Sprintf(format, args...)}
	a.mu.Lock()
	if len(a.violations) < violationLimit {
		a.violations = append(a.violations, v)
	} else {
		a.dropped++
	}
	cb := a.onViolation
	a.mu.Unlock()
	if cb != nil {
		cb(v)
	}
}

// Violations returns a copy of the retained violations.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.violations...)
}

// Err returns nil when no invariant was ever breached, or an error
// summarising the first few violations (and how many more followed).
//
// Kept: the chaos and core suites fail on it.
func (a *Auditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.violations) + a.dropped
	if n == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s):", n)
	for i, v := range a.violations {
		if i == 5 {
			fmt.Fprintf(&b, " ... and %d more", n-i)
			break
		}
		b.WriteString("\n  " + v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// Stats reports how much auditing happened — so a "clean" run can prove the
// auditor actually looked.
type Stats struct {
	Sweeps     int   `json:"sweeps"`
	Events     int64 `json:"events"`
	Violations int   `json:"violations"`
}

// Stats returns the audit counters.
func (a *Auditor) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Sweeps: a.sweeps, Events: a.events, Violations: len(a.violations) + a.dropped}
}

// ---------------------------------------------------------------------------
// Event-stream invariants.

// liveEventStates maps each announced post-transition state to the states a
// later event for the same slice may announce. Self-loops cover the epoch
// loop (resized/violation while active) and the squeeze (resized while
// installing); "reconfiguring" never reaches the bus — resize events are
// published after the transition back to active completes.
var liveEventStates = map[string][]string{
	"pending":    {"rejected", "installing"},
	"installing": {"installing", "active", "terminated"},
	"active":     {"active", "terminated"},
	"rejected":   {},
	"terminated": {},
}

// ObserveEvent feeds one published lifecycle event. The orchestrator calls
// it synchronously from the event bus, in sequence order, so gap-freeness
// and per-slice transition legality are checked exactly — no reordering
// tolerance needed. sliceID is empty for link events and resync markers
// (they participate in the sequence but carry no slice state).
func (a *Auditor) ObserveEvent(seq int64, sliceID slice.ID, typ, state string) {
	a.mu.Lock()
	a.events++
	last := a.lastSeq
	a.lastSeq = seq
	var prev string
	havePrev := false
	if sliceID != "" {
		prev, havePrev = a.lastState[sliceID]
		a.lastState[sliceID] = state
		if state == "terminated" || state == "rejected" {
			// Terminal: drop the entry so a soak's map stays bounded; the
			// terminal states forbid successors, and slice IDs are never
			// reused, so forgetting them is safe.
			delete(a.lastState, sliceID)
		}
	}
	a.mu.Unlock()

	if last != 0 && seq != last+1 {
		a.record("event-gap", "sequence jumped %d -> %d (type %s)", last, seq, typ)
	}
	if sliceID == "" {
		return
	}
	if !havePrev {
		// The first event for a slice must be its submission (state
		// pending): every core path — including every rejection path —
		// publishes EventSubmitted before anything else, so any other
		// first state means the submitted event was lost or reordered.
		if state != "pending" {
			a.record("state-machine", "slice %s first event %s announces state %q, want pending", sliceID, typ, state)
		}
		return
	}
	for _, ok := range liveEventStates[prev] {
		if ok == state {
			return
		}
	}
	a.record("state-machine", "slice %s: illegal announced transition %q -> %q (event %s)", sliceID, prev, state, typ)
}

// Prime seeds the event-stream and epoch state after crash recovery: the
// next observed event must carry seq+1, and each listed live slice's next
// event is checked against its recovered state rather than being mistaken
// for a missing submission. Without priming, a recovered auditor would
// flag every pre-crash slice's first post-recovery event as "first event
// must announce pending".
func (a *Auditor) Prime(seq int64, states map[slice.ID]string, epoch int, at time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastSeq = seq
	a.lastState = make(map[slice.ID]string, len(states))
	for id, st := range states {
		a.lastState[id] = st
	}
	a.lastEpoch = epoch
	a.lastAt = at
}

// ObserveEpoch feeds one published epoch snapshot (the P4 barrier).
func (a *Auditor) ObserveEpoch(epoch int, at time.Time) {
	a.mu.Lock()
	lastEpoch, lastAt := a.lastEpoch, a.lastAt
	a.lastEpoch, a.lastAt = epoch, at
	a.mu.Unlock()
	if lastEpoch != 0 && epoch != lastEpoch+1 {
		a.record("epoch-monotonic", "epoch counter jumped %d -> %d", lastEpoch, epoch)
	}
	if !lastAt.IsZero() && at.Before(lastAt) {
		a.record("epoch-monotonic", "epoch %d timestamp %v precedes epoch %d's %v", epoch, at, lastEpoch, lastAt)
	}
}

// ---------------------------------------------------------------------------
// Conservation and leak sweeps.

// SliceView is the core's neutral description of one registered slice at
// sweep time, collected under every shard lock so the cut is consistent.
type SliceView struct {
	ID    slice.ID
	State string // API string form ("installing", "active", ...)
	// LedgerKbps is the slice's entry in the shared radio capacity ledger.
	LedgerKbps slice.Kbps
	// Allocation echoes the slice's recorded multi-domain allocation.
	PLMN     slice.PLMN
	PathIDs  []string
	StackID  string
	EPCID    string
	MECAppID string
	DC       string
}

// live reports whether the slice should currently hold resources.
func (v SliceView) live() bool {
	switch v.State {
	case "admitted", "installing", "active", "reconfiguring":
		return true
	}
	return false
}

// SweepInput is everything one conservation/leak sweep needs. The core
// builds it while holding every shard lock (so no install transaction is
// mid-flight except those listed in Pending).
type SweepInput struct {
	TB     *testbed.Testbed
	Slices []SliceView
	// LedgerLoad is the capacity ledger's current total.
	LedgerLoad slice.Kbps
	// PLMNOwners maps every allocator-held PLMN to its owning slice.
	PLMNOwners map[slice.PLMN]slice.ID
	// Pending lists slice IDs whose install transaction is in flight (the
	// squeeze window releases the shard lock mid-install); their resources
	// are exempt from leak checks and their ledger reservations excuse an
	// over-full ledger.
	Pending map[slice.ID]bool
}

// Sweep runs the full cross-domain conservation and leak audit. The caller
// (the epoch barrier, or a test) must present a quiescent registry cut; the
// substrate reads take each substrate's own lock.
func (a *Auditor) Sweep(in SweepInput) {
	a.mu.Lock()
	a.sweeps++
	a.mu.Unlock()

	live := make(map[slice.ID]SliceView, len(in.Slices))
	var ledgerSum slice.Kbps
	for _, v := range in.Slices {
		if !v.live() {
			continue
		}
		live[v.ID] = v
		ledgerSum += v.LedgerKbps
		if v.LedgerKbps < 0 {
			a.record("ledger", "slice %s holds negative ledger entry %d kbps", v.ID, v.LedgerKbps)
		}
	}

	// Radio capacity ledger: the shared overbooking budget must be exactly
	// the sum of live entries. In-flight installs (Pending) have reserved
	// their admission estimate but not yet recorded it on a managed slice,
	// so equality can only be checked on a quiet registry.
	if len(in.Pending) == 0 {
		if in.LedgerLoad != ledgerSum {
			a.record("ledger", "capacity ledger %d kbps != Σ live slice entries %d (Δ %d over %d slices)",
				in.LedgerLoad, ledgerSum, in.LedgerLoad-ledgerSum, len(live))
		}
	}
	if in.LedgerLoad < 0 {
		a.record("ledger", "capacity ledger negative: %d kbps", in.LedgerLoad)
	}

	a.sweepRadio(in, live)
	a.sweepTransport(in, live)
	a.sweepCloud(in, live)
	a.sweepMEC(in, live)
}

// sweepRadio checks eNB conservation plus PLMN <-> slice leak-freedom.
func (a *Auditor) sweepRadio(in SweepInput, live map[slice.ID]SliceView) {
	// Allocator view: every held PLMN belongs to a live or pending slice,
	// and every live slice's PLMN is held.
	for p, owner := range in.PLMNOwners {
		if in.Pending[owner] {
			continue
		}
		if _, ok := live[owner]; !ok {
			a.record("leak", "PLMN %s still allocated to non-live slice %s", p, owner)
		}
	}
	plmnOf := make(map[slice.PLMN]slice.ID, len(live))
	for id, v := range live {
		if v.PLMN.IsZero() {
			continue // admitted-but-not-allocated windows carry no PLMN
		}
		plmnOf[v.PLMN] = id
		if got, ok := in.PLMNOwners[v.PLMN]; !ok || got != id {
			a.record("leak", "slice %s records PLMN %s but the allocator assigns it to %q", id, v.PLMN, got)
		}
	}
	for _, e := range in.TB.RAN.All() {
		for _, msg := range e.AuditConservation() {
			a.record("conservation", "%s", msg)
		}
		for _, p := range e.BroadcastList() {
			owner, allocated := in.PLMNOwners[p]
			if !allocated {
				a.record("leak", "%s broadcasts PLMN %s that no slice owns", e.Name(), p)
				continue
			}
			if in.Pending[owner] {
				continue
			}
			if _, ok := plmnOf[p]; !ok {
				a.record("leak", "%s holds PRBs for PLMN %s of non-live slice %s", e.Name(), p, owner)
			}
		}
		// Every live slice past installation must hold PRBs on every cell.
		for id, v := range live {
			if v.PLMN.IsZero() || in.Pending[id] {
				continue
			}
			if _, ok := e.Reservation(v.PLMN); !ok {
				a.record("leak", "live slice %s (PLMN %s) has no PRB reservation on %s", id, v.PLMN, e.Name())
			}
		}
	}
}

// sweepTransport checks link conservation plus path <-> slice leak-freedom.
func (a *Auditor) sweepTransport(in SweepInput, live map[slice.ID]SliceView) {
	for _, msg := range in.TB.Transport.AuditConservation() {
		a.record("conservation", "%s", msg)
	}
	held := make(map[string]bool)
	for _, r := range in.TB.Transport.Reservations() {
		held[r.ID] = true
		owner := ctrl.OwnerOf(r.ID)
		if in.Pending[owner] {
			continue
		}
		if _, ok := live[owner]; !ok {
			a.record("leak", "transport path %q survives its slice %s", r.ID, owner)
		}
	}
	for id, v := range live {
		if in.Pending[id] {
			continue
		}
		for _, pid := range v.PathIDs {
			if !held[pid] {
				a.record("leak", "live slice %s records path %q that transport no longer holds", id, pid)
			}
		}
	}
}

// sweepCloud checks DC conservation plus stack <-> slice leak-freedom.
func (a *Auditor) sweepCloud(in SweepInput, live map[slice.ID]SliceView) {
	for _, dc := range in.TB.Region.All() {
		for _, msg := range dc.AuditConservation() {
			a.record("conservation", "%s", msg)
		}
		for _, stackID := range dc.StackIDs() {
			owner := ctrl.OwnerOf(stackID)
			if in.Pending[owner] {
				continue
			}
			if _, ok := live[owner]; !ok {
				a.record("leak", "cloud stack %q in %s survives its slice %s", stackID, dc.Name(), owner)
			}
		}
	}
	for id, v := range live {
		if v.StackID == "" || in.Pending[id] {
			continue
		}
		dc, ok := in.TB.Region.Get(v.DC)
		if !ok {
			a.record("leak", "live slice %s records unknown data center %q", id, v.DC)
			continue
		}
		if _, ok := dc.Stack(v.StackID); !ok {
			a.record("leak", "live slice %s records stack %q that %s no longer holds", id, v.StackID, v.DC)
		}
	}
}

// sweepMEC checks pool conservation plus app <-> slice leak-freedom.
func (a *Auditor) sweepMEC(in SweepInput, live map[slice.ID]SliceView) {
	if in.TB.MEC == nil {
		return
	}
	for _, msg := range in.TB.MEC.AuditConservation() {
		a.record("conservation", "%s", msg)
	}
	placed := make(map[string]bool)
	for _, app := range in.TB.MEC.Apps() {
		placed[app.ID] = true
		if in.Pending[app.Slice] {
			continue
		}
		if _, ok := live[app.Slice]; !ok {
			a.record("leak", "mec app %q survives its slice %s", app.ID, app.Slice)
		}
	}
	for id, v := range live {
		if v.MECAppID == "" || in.Pending[id] {
			continue
		}
		if !placed[v.MECAppID] {
			a.record("leak", "live slice %s records mec app %q that the pool no longer holds", id, v.MECAppID)
		}
	}
}

// CheckSliceReleased is the scoped per-transaction audit: after a rollback
// or teardown of the slice, no uniquely-named resource of it may survive in
// any substrate. It deliberately checks only ID-keyed resources (paths,
// stacks, MEC apps) — PLMNs are recycled, so their absence can only be
// checked by the quiescent Sweep.
func (a *Auditor) CheckSliceReleased(tb *testbed.Testbed, id slice.ID) {
	for _, r := range tb.Transport.Reservations() {
		if ctrl.OwnerOf(r.ID) == id {
			a.record("leak", "rollback/teardown of %s left transport path %q reserved", id, r.ID)
		}
	}
	for _, dc := range tb.Region.All() {
		for _, stackID := range dc.StackIDs() {
			if ctrl.OwnerOf(stackID) == id {
				a.record("leak", "rollback/teardown of %s left cloud stack %q in %s", id, stackID, dc.Name())
			}
		}
	}
	if tb.MEC != nil {
		for _, app := range tb.MEC.Apps() {
			if ctrl.OwnerOf(app.ID) == id {
				a.record("leak", "rollback/teardown of %s left mec app placed", id)
			}
		}
	}
}

// CheckSliceInstalled is the scoped post-commit audit: everything the
// freshly installed slice's allocation records must actually be held by the
// substrates — a commit that "succeeded" without its resources is as much a
// conservation bug as a leak.
func (a *Auditor) CheckSliceInstalled(tb *testbed.Testbed, v SliceView) {
	if !v.PLMN.IsZero() {
		for _, e := range tb.RAN.All() {
			if _, ok := e.Reservation(v.PLMN); !ok {
				a.record("leak", "post-commit: slice %s (PLMN %s) holds no PRBs on %s", v.ID, v.PLMN, e.Name())
			}
		}
	}
	for _, pid := range v.PathIDs {
		if _, ok := tb.Transport.Reservation(pid); !ok {
			a.record("leak", "post-commit: slice %s path %q not reserved", v.ID, pid)
		}
	}
	if v.StackID != "" {
		dc, ok := tb.Region.Get(v.DC)
		if !ok {
			a.record("leak", "post-commit: slice %s records unknown data center %q", v.ID, v.DC)
		} else if _, ok := dc.Stack(v.StackID); !ok {
			a.record("leak", "post-commit: slice %s stack %q missing from %s", v.ID, v.StackID, v.DC)
		}
	}
	if v.MECAppID != "" && tb.MEC != nil {
		if _, ok := tb.MEC.App(v.MECAppID); !ok {
			a.record("leak", "post-commit: slice %s mec app %q not placed", v.ID, v.MECAppID)
		}
	}
}

// Fold checks a tier's one-writer contract after one transition: live is
// the tier's digest, folded the digest of a fresh tier bound to the same
// members that applied nothing but the transition stream. Any difference is
// state written outside the transitions, recorded as a "fold" violation.
func (a *Auditor) Fold(tier, transition string, live, folded []byte) {
	if !bytes.Equal(live, folded) {
		a.record("fold", "%s after %s: live tier differs from the fold of its transitions:\n%s---\n%s",
			tier, transition, live, folded)
	}
}
