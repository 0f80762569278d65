package core

import (
	"fmt"

	"repro/internal/slice"
)

// Public reconfiguration surface for the intent plane (DESIGN.md §13):
// canary rollouts resize a fleet fraction to a new template version's
// provisioning target and must both apply the change now (Resize) and keep
// the control epoch from undoing it on its next pass (SetProvisionCap).

// Resize applies a new provisioning target to the slice through the same
// multi-domain reconfiguration path the control epoch uses: hysteresis,
// clamping to [FloorMbps, contract], the Active→Reconfiguring→Active state
// walk, reverse-order abort on any domain failure, EventResized and the WAL
// resize record. Returns whether a reconfiguration actually happened (false
// when hysteresis swallowed it or a domain refused). Slices already
// rejected or terminated are skipped without error — a fleet operation must
// tolerate members expiring under it; only an unknown ID is an error.
func (o *Orchestrator) Resize(id slice.ID, targetMbps float64) (bool, error) {
	return o.resizeWith(id, func(m *managedSlice) bool {
		_, _, changed := o.resizeLocked(m, targetMbps)
		return changed
	})
}

// SetProvisionCap caps the slice's epoch provisioning target at capMbps
// (0 clears the cap) and immediately resizes toward the cap — down when the
// canary shrinks to an aggressive new template, back up when a rollback
// restores the old version (the next overbooking epoch may then shrink
// below it again, toward its own forecast target, as usual). The cap is the
// canary-rollout primitive: a plain Resize would last exactly one control
// epoch before the forecast-driven reconfiguration restored its own target.
// The cap is volatile state — not written to the WAL — because recovery
// imposes logged epoch outcomes rather than re-deciding them; the intent
// plane re-establishes caps after a restart. Returns whether an immediate
// reconfiguration happened. On a finished slice the cap is recorded but
// never read, and nothing is resized.
func (o *Orchestrator) SetProvisionCap(id slice.ID, capMbps float64) (bool, error) {
	if capMbps < 0 {
		return false, fmt.Errorf("core: negative provision cap %.1f", capMbps)
	}
	return o.resizeWith(id, func(m *managedSlice) bool {
		m.provCapMbps = capMbps
		if capMbps > 0 {
			_, _, changed := o.resizeLocked(m, capMbps)
			return changed
		}
		return false
	})
}

// resizeWith runs fn on the slice under its shard lock, then commits any
// WAL records the reconfiguration appended. resizeLocked skips a finished
// slice.
func (o *Orchestrator) resizeWith(id slice.ID, fn func(*managedSlice) bool) (bool, error) {
	sh := o.shardFor(id)
	sh.mu.Lock()
	m, ok := sh.slices[id]
	if !ok {
		sh.mu.Unlock()
		return false, fmt.Errorf("core: unknown slice %s", id)
	}
	changed := fn(m)
	sh.mu.Unlock()
	if changed {
		o.commitPersist()
	}
	return changed, nil
}
