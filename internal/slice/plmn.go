package slice

import (
	"fmt"
	"sort"
	"sync"
)

// PLMN is a Public Land Mobile Network identifier (MCC+MNC). The demo maps
// each network slice onto a dedicated PLMN dynamically installed in the
// MOCN-sharing eNBs, because no commercial slicing equipment existed.
type PLMN struct {
	// MCC is the 3-digit mobile country code, e.g. "001" (test range).
	MCC string `json:"mcc"`
	// MNC is the 2-digit mobile network code.
	MNC string `json:"mnc"`
}

// String renders the PLMN as MCC-MNC, e.g. "001-01".
func (p PLMN) String() string { return p.MCC + "-" + p.MNC }

// IsZero reports whether the PLMN is unset.
func (p PLMN) IsZero() bool { return p.MCC == "" && p.MNC == "" }

// PLMNAllocator hands out dedicated PLMN IDs from the test MCC range and
// recycles those of terminated slices. An eNB can only broadcast a bounded
// number of PLMNs under MOCN (six per 3GPP TS 36.331 SIB1), so exhaustion is
// a real admission-rejection cause the orchestrator must surface.
type PLMNAllocator struct {
	mu    sync.Mutex
	limit int
	inUse map[PLMN]ID
	free  []PLMN
	next  int
}

// mcc is the test-range mobile country code every allocated PLMN carries.
const mcc = "001"

// DefaultPLMNLimit matches the SIB1 limit of 6 PLMN identities per cell
// broadcast; the demo's two eNBs broadcast a shared MOCN list.
const DefaultPLMNLimit = 6

// NewPLMNAllocator returns an allocator with at most limit simultaneously
// assigned PLMNs. limit <= 0 selects DefaultPLMNLimit.
func NewPLMNAllocator(limit int) *PLMNAllocator {
	if limit <= 0 {
		limit = DefaultPLMNLimit
	}
	return &PLMNAllocator{
		limit: limit,
		inUse: make(map[PLMN]ID),
	}
}

// ErrPLMNExhausted is returned when all broadcastable PLMN slots are taken.
var ErrPLMNExhausted = fmt.Errorf("slice: PLMN broadcast list full (MOCN limit)")

// Allocate assigns a free PLMN to the slice.
func (a *PLMNAllocator) Allocate(owner ID) (PLMN, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.inUse) >= a.limit {
		return PLMN{}, fmt.Errorf("%w: %d in use", ErrPLMNExhausted, len(a.inUse))
	}
	var p PLMN
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		a.next++
		p = PLMN{MCC: mcc, MNC: fmt.Sprintf("%02d", a.next)}
	}
	a.inUse[p] = owner
	return p, nil
}

// Release returns the slice's PLMN to the pool. Releasing an unknown PLMN is
// a no-op so teardown paths stay idempotent.
func (a *PLMNAllocator) Release(p PLMN) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.inUse[p]; !ok {
		return
	}
	delete(a.inUse, p)
	a.free = append(a.free, p)
}

// Owner reports which slice currently holds the PLMN.
func (a *PLMNAllocator) Owner(p PLMN) (ID, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	id, ok := a.inUse[p]
	return id, ok
}

// InUse returns the currently broadcast PLMNs in deterministic order —
// exactly the MOCN list the eNBs would advertise in SIB1.
func (a *PLMNAllocator) InUse() []PLMN {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]PLMN, 0, len(a.inUse))
	for p := range a.inUse {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MCC != out[j].MCC {
			return out[i].MCC < out[j].MCC
		}
		return out[i].MNC < out[j].MNC
	})
	return out
}

// PLMNAssignment is one in-use entry of an exported allocator state.
type PLMNAssignment struct {
	PLMN  PLMN
	Owner ID
}

// PLMNState is the allocator's durable state for checkpoint snapshots.
// Free preserves stack order (Allocate pops the tail), so a restored
// allocator recycles identifiers in exactly the original order.
type PLMNState struct {
	Next  int
	Free  []PLMN
	InUse []PLMNAssignment
}

// Export captures the allocator state for a snapshot. InUse is sorted by
// PLMN for a canonical encoding; Free keeps its stack order.
func (a *PLMNAllocator) Export() PLMNState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := PLMNState{Next: a.next, Free: append([]PLMN(nil), a.free...)}
	for p, id := range a.inUse {
		st.InUse = append(st.InUse, PLMNAssignment{PLMN: p, Owner: id})
	}
	sort.Slice(st.InUse, func(i, j int) bool {
		if st.InUse[i].PLMN.MCC != st.InUse[j].PLMN.MCC {
			return st.InUse[i].PLMN.MCC < st.InUse[j].PLMN.MCC
		}
		return st.InUse[i].PLMN.MNC < st.InUse[j].PLMN.MNC
	})
	return st
}

// Restore replaces the allocator state with an exported snapshot.
func (a *PLMNAllocator) Restore(st PLMNState) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.next = st.Next
	a.free = append([]PLMN(nil), st.Free...)
	a.inUse = make(map[PLMN]ID, len(st.InUse))
	for _, e := range st.InUse {
		a.inUse[e.PLMN] = e.Owner
	}
}

// Impose assigns a specific PLMN to the slice — the log-replay primitive.
// Where Allocate picks the next identifier itself, replay must reproduce
// the exact PLMN the original run assigned: the identifier is removed from
// the free stack if recycled, or the fresh-numbering counter is advanced
// past it.
func (a *PLMNAllocator) Impose(p PLMN, owner ID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cur, ok := a.inUse[p]; ok {
		return fmt.Errorf("slice: PLMN %s already assigned to %s", p, cur)
	}
	if len(a.inUse) >= a.limit {
		return fmt.Errorf("%w: %d in use", ErrPLMNExhausted, len(a.inUse))
	}
	for i := len(a.free) - 1; i >= 0; i-- {
		if a.free[i] == p {
			a.free = append(a.free[:i], a.free[i+1:]...)
			a.inUse[p] = owner
			return nil
		}
	}
	var n int
	if _, err := fmt.Sscanf(p.MNC, "%d", &n); err == nil && n > a.next {
		a.next = n
	}
	a.inUse[p] = owner
	return nil
}

// Available reports how many more PLMNs can be assigned.
func (a *PLMNAllocator) Available() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limit - len(a.inUse)
}
