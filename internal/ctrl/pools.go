// Grant pooling for the admission hot path. Every install/resize allocates
// one grant per domain; under load that is the dominant per-request garbage
// after path computation. Grants have a strict ownership lifecycle —
// constructed by Reserve/Resize, applied at most once, then either committed
// or aborted — so the engine can return them to a pool at well-defined
// exclusive-ownership points (see RecycleGrant).
//
// Ownership rules (the §10 pool contract):
//
//   - A grant's heap containers (the radio PRB map, the transport path-ID
//     slice) are surrendered to the slice allocation by Apply, which drops
//     the grant's reference after the transfer (the radio grant takes the
//     allocation's superseded PRB map in exchange — dead state nobody else
//     references), so recycling an applied grant can never alias live slice
//     state.
//   - RecycleGrant must only be called by the party holding the last
//     reference (the engine after commit cleanup or rollback, or the domain
//     itself on a failed Reserve). Recycling is optional — an un-recycled
//     grant is ordinary garbage.
//   - Abort and Release never recycle: chaos wrappers and tests may retain
//     grants past Abort, and the single-shot aborted latch must stay
//     readable.
package ctrl

import (
	"sync"
	"sync/atomic"

	"repro/internal/mec"
	"repro/internal/slice"
)

var (
	radioGrantPool = sync.Pool{New: func() any { return new(radioGrant) }}
	pathGrantPool  = sync.Pool{New: func() any { return new(pathGrant) }}
	cloudGrantPool = sync.Pool{New: func() any { return new(cloudGrant) }}
	mecGrantPool   = sync.Pool{New: func() any { return new(mecGrant) }}
)

// poisonGrants, when set, makes RecycleGrant overwrite every recycled grant
// with sentinel garbage before returning it to its pool. Any component that
// illegally retains a reference past the recycle point then observes
// impossible values (negative PRB counts, "poisoned" IDs) that the
// conservation auditors and golden tests flag immediately. Test-only.
var poisonGrants atomic.Bool

// SetGrantPoisoning toggles poison-on-recycle (tests only). Not intended for
// production paths: poisoning defeats container reuse on purpose.
func SetGrantPoisoning(on bool) { poisonGrants.Store(on) }

// newRadioGrant returns a pooled radio grant ready for reserveCells or
// resizeCells: the abort latch is re-armed and the PRB map is present and
// empty.
func newRadioGrant(p slice.PLMN) *radioGrant {
	g := radioGrantPool.Get().(*radioGrant)
	g.aborted.Store(false)
	g.plmn = p
	g.res.TotalMbps = 0
	if g.res.PRBs == nil {
		g.res.PRBs = make(map[string]int, 4)
	}
	return g
}

// newPathGrant returns a pooled transport grant; reservePaths reuses the
// retained PathIDs backing array.
func newPathGrant(id slice.ID) *pathGrant {
	g := pathGrantPool.Get().(*pathGrant)
	g.aborted.Store(false)
	g.id = id
	g.setup.WorstDelayMs = 0
	if g.setup.PathIDs != nil {
		g.setup.PathIDs = g.setup.PathIDs[:0]
	}
	return g
}

// newCloudGrant returns a pooled cloud grant; the caller fills dep.
func newCloudGrant(id slice.ID) *cloudGrant {
	g := cloudGrantPool.Get().(*cloudGrant)
	g.aborted.Store(false)
	g.id = id
	g.dep = Deployment{}
	return g
}

// newMECGrant returns a pooled MEC grant; the caller fills app.
func newMECGrant() *mecGrant {
	g := mecGrantPool.Get().(*mecGrant)
	g.aborted.Store(false)
	g.app = mec.App{}
	return g
}

// RecycleGrant returns a grant to its domain pool. The caller asserts it
// holds the last reference — after this call the grant (and, unless Apply
// surrendered them, its containers) may be reused by an unrelated slice.
// Grants of unknown concrete types (test doubles, wrappers) are left to the
// garbage collector.
func RecycleGrant(g Grant) {
	switch t := g.(type) {
	case *radioGrant:
		if poisonGrants.Load() {
			// Poison in place: a retainer aliasing the map sees negative
			// PRB counts; one aliasing the grant sees an impossible PLMN.
			for k := range t.res.PRBs {
				t.res.PRBs[k] = -1 << 20
			}
			t.plmn = slice.PLMN{MCC: "poisoned", MNC: "poisoned"}
			t.res.TotalMbps = -1
			t.res.PRBs = nil
		} else {
			t.plmn = slice.PLMN{}
			t.res.TotalMbps = 0
			clear(t.res.PRBs)
		}
		radioGrantPool.Put(t)
	case *pathGrant:
		if poisonGrants.Load() {
			for i := range t.setup.PathIDs {
				t.setup.PathIDs[i] = "poisoned-path"
			}
			t.id = "poisoned-slice"
			t.setup.WorstDelayMs = -1
			t.setup.PathIDs = nil
		} else {
			t.id = ""
			t.setup.WorstDelayMs = 0
			if t.setup.PathIDs != nil {
				t.setup.PathIDs = t.setup.PathIDs[:0]
			}
		}
		pathGrantPool.Put(t)
	case *cloudGrant:
		if poisonGrants.Load() {
			t.id = "poisoned-slice"
			t.dep = Deployment{DataCenter: "poisoned-dc", StackID: "poisoned-stack", EPCID: "poisoned-epc", BootDelay: -1}
		} else {
			t.id = ""
			t.dep = Deployment{}
		}
		cloudGrantPool.Put(t)
	case *mecGrant:
		if poisonGrants.Load() {
			t.app = mec.App{ID: "poisoned-app", Slice: "poisoned-slice", CPU: -1, Host: "poisoned-host"}
		} else {
			t.app = mec.App{}
		}
		mecGrantPool.Put(t)
	}
}
