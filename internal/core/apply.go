package core

import (
	"fmt"
	"time"

	"repro/internal/ctrl"
	"repro/internal/forecast"
	"repro/internal/slice"
	"repro/internal/traffic"
)

// This file holds the appliers: the only code that writes the books (the
// capacity ledger, the shard counters, the finished history, the slice-ID
// counter) and the registry. Every slice and link transition ends in the
// applier of the record that logs it, whether it happens live or is replayed:
//
//	live:   decide → publish → appendRecord (with a sink) → apply
//	replay: decode → bind → apply                          (recover.go)
//
// Decide is each verb's own: policy, feasibility, the ledger's TryReserve,
// the two-phase Reserve → Commit or a Domain.Resize, and the outcome and
// events these produce. Apply is written once: registry insert, the shard
// counters, the ledger entry, the state transition, the PLMN release, the
// install timeline, the finished history. A record is appended before its
// effect is visible, so no other operation can act on a transition — and
// log that it did — ahead of the transition's own record
// (TestRecordAppendedBeforeEffect).
//
// The appliers fork in exactly one place, named bind: binding the outcome
// to the shared pools. Live, decide already holds it — the PLMN allocated,
// the grants committed and applied to the allocation, the handles resized,
// the estimate reserved on the ledger — and bind is false. Replay has only
// the record, so the applier first imposes the logged outcome: through the
// PLMN allocator's Impose, the controllers' Impose* verbs and ResizePaths,
// the MEC pool (recover.go's imposeSubstrate and friends) and, for an entry
// the ledger does not hold yet, ledger.Update(0, reserved). Event
// publication (publish live, the bus's Republish on replay) and timers
// (clock.At live, rearmTimers on replay) stay outside both paths.

// register enters m in its shard's registry and advances the slice-ID
// counter past it. With bind, m's ledger entry joins the shared ledger; a
// live admission's TryReserve already put it there.
func (o *Orchestrator) register(m *managedSlice, bind bool) {
	m.sh.insert(m)
	if n := int64(m.seq); n > o.seq.Load() {
		o.seq.Store(n)
	}
	if bind {
		o.ledger.Update(0, m.ledgerKbps)
	}
}

// applyAdmit registers m, whose slice decide left Installing with its grants
// applied and its substrate handles bound (replay: rehydrated from the
// record's image, with nothing bound yet), with the record's ledger
// reservation and install timeline, and adds it to the live totals. Stage
// stamps are written up front (the stages complete at fixed offsets from
// submission); only the activation timer is the caller's to arm.
func (o *Orchestrator) applyAdmit(ar *admitRecord, m *managedSlice, demand traffic.Demand, bind bool) error {
	s := m.s
	if bind {
		if err := o.plmns.Impose(s.PLMN(), s.ID()); err != nil {
			return err
		}
		if err := o.imposeSubstrate(m, ar.Paths, ar.MECHost, ar.MECCPU); err != nil {
			return err
		}
	}
	tl := newInstallTimeline(ar.SubmittedAt)
	m.demand = demand
	m.prov = forecast.NewProvisioner(o.cfg.NewForecaster(), o.cfg.effectiveRisk(), o.cfg.FloorMbps)
	m.ledgerKbps = ar.ReservedKbps
	m.activateAt = ar.ActivateAt
	m.timeline = &tl
	o.register(m, bind)
	sla := s.SLA()
	m.sh.admit(sla.PriceEUR, sla.ThroughputMbps, s.AllocatedMbps())
	return nil
}

// applyReject registers a rejected slice (so the dashboard shows it), keys the
// rejection histogram on its cause's stable typed code — never on the
// free-form detail, which would give every rejection its own bucket — and
// returns the finished slices evicted from the bounded history, which the
// caller drops once it holds no shard lock. A rejection holds nothing to
// bind.
func (o *Orchestrator) applyReject(s *slice.Slice) ([]slice.ID, error) {
	cause, ok := s.Cause()
	if !ok {
		return nil, fmt.Errorf("rejected slice %s carries no cause", s.ID())
	}
	m := &managedSlice{s: s, sh: o.shardFor(s.ID())}
	o.register(m, false)
	m.sh.reject(cause.Code)
	return o.history.Push(s.ID()), nil
}

// applyActivate turns an installing slice Active at the vEPC-boot instant.
func (o *Orchestrator) applyActivate(m *managedSlice, at time.Time, bind bool) error {
	if bind {
		if err := o.tb.Ctrl.Cloud.MarkEPCRunning(m.s.EPCID(), at); err != nil {
			return err
		}
	}
	if err := m.s.Activate(at); err != nil {
		return err
	}
	m.sh.active.Add(1)
	if m.timeline != nil {
		m.timeline.Active = at
	}
	return nil
}

// applyTeardown terminates a live slice: every domain's resources released
// in reverse acquisition order, its PLMN and ledger entry returned, and its
// contract and allocation — and its place in the active count, if it was
// carrying traffic — leave the live totals. It returns the finished slices
// evicted from the bounded history, which the caller drops once its locks
// are released. A slice that is not live refuses the transition and nothing
// moves. A teardown releases; there is nothing to bind — and the slice's
// binding, whose handles the release killed, is dropped.
func (o *Orchestrator) applyTeardown(m *managedSlice, reason string) ([]slice.ID, error) {
	id, st, plmn, allocated := m.s.ID(), m.s.State(), m.s.PLMN(), m.s.AllocatedMbps()
	if err := m.s.Terminate(reason); err != nil {
		return nil, err
	}
	o.releaseAll(id, plmn)
	m.bind = ctrl.Binding{}
	o.plmns.Release(plmn)
	o.ledger.Release(m.ledgerKbps)
	m.ledgerKbps = 0
	m.sh.release(m.s.SLA().ThroughputMbps, allocated)
	if st == slice.StateActive || st == slice.StateReconfiguring {
		m.sh.active.Add(-1)
	}
	return o.history.Push(id), nil
}

// applyResize moves a live slice's share of the allocated total from
// beforeMbps to the record's allocation. Engine resizes count a
// reconfiguration; a degradation shrink's was counted by its reroute.
func (o *Orchestrator) applyResize(m *managedSlice, rr *resizeRecord, beforeMbps float64, bind bool) error {
	if bind {
		if err := o.imposeResize(m, rr); err != nil {
			return err
		}
	}
	m.sh.reallocate(beforeMbps, rr.Mbps)
	if rr.ResizePaths {
		m.sh.reconfigurations.Add(1)
	}
	return nil
}

// applyReroute counts a restoration re-route as a reconfiguration.
func (o *Orchestrator) applyReroute(m *managedSlice, rr *rerouteRecord, bind bool) error {
	if bind {
		if err := o.imposeReroute(m, rr); err != nil {
			return err
		}
	}
	m.sh.reconfigurations.Add(1)
	return nil
}

// applyLink takes a transport-link transition. It makes no substrate
// decision, so live and replay run it alike; per-victim outcomes follow as
// their own records.
func (o *Orchestrator) applyLink(lr *linkRecord) error {
	switch lr.Kind {
	case "fail":
		return o.tb.Transport.SetLinkUp(lr.From, lr.To, false)
	case "degrade":
		return o.tb.Transport.SetLinkCapacity(lr.From, lr.To, lr.CapacityMbps)
	case "restore":
		return o.tb.Transport.SetLinkUp(lr.From, lr.To, true)
	}
	return fmt.Errorf("unknown link record kind %q", lr.Kind)
}

// applyCharge bills m one SLA-violation epoch.
func (o *Orchestrator) applyCharge(m *managedSlice) {
	m.sh.charge(m.s.SLA().PenaltyEUR)
}

// applyLedgerRoll rolls m's ledger entry forward to the epoch's provisioning
// target.
func (o *Orchestrator) applyLedgerRoll(m *managedSlice, to slice.Kbps) {
	o.ledger.Update(m.ledgerKbps, to)
	m.ledgerKbps = to
}

// applyEpoch replays a control epoch's per-slice outcomes. The epoch's
// resizes preceded this record as their own records, so only the analysis
// results (demand samples, violation counting, forecaster observations), the
// charges and the ledger rolls happen here — the latter two through the
// helpers the live commit phase calls. Under concurrency a slice's teardown
// record can precede the record of the epoch that measured it: the charge
// still counts (it happened), the ledger roll does not (the teardown released
// the entry it rolled).
func (o *Orchestrator) applyEpoch(er *epochRecord) error {
	o.epochs.Store(er.Epoch)
	for _, it := range er.Items {
		m, ok := o.shardFor(it.Slice).slices[it.Slice]
		if !ok {
			continue
		}
		m.lastDemand = it.Demand
		m.haveDemand = true
		if it.Counted {
			if m.prov == nil {
				return fmt.Errorf("epoch %d measured slice %s, which was never admitted", er.Epoch, it.Slice)
			}
			m.s.RecordEpoch(it.Demand, it.Served, false)
			m.prov.Observe(it.Demand)
		}
		if it.Charged {
			o.applyCharge(m)
		}
		if st := m.s.State(); it.LedgerUpdated && st != slice.StateTerminated && st != slice.StateRejected {
			o.applyLedgerRoll(m, it.LedgerTo)
		}
	}
	o.lastEpoch.Store(&er.Snapshot)
	return nil
}
