package ran

import "repro/internal/slice"

// ScheduleEpoch runs the MOCN scheduler for one monitoring epoch: each PLMN
// is served up to its reserved PRB budget at the cell's mean CQI; if
// shareUnused is true, PRBs left idle by under-demanding slices are
// redistributed to saturated ones (work-conserving proportional reuse, the
// in-scheduler statistical multiplexing of [1]).
//
// It returns the delivered throughput for every PLMN on the broadcast list
// and the overall PRB utilization in [0,1]. It is a map-typed adapter: it
// walks the cell's own reservation list to index the load, then runs the
// one scheduling pass ScheduleBound runs. It is the map-addressed reference
// the suites hold the handle-addressed ScheduleBound to.
func (e *ENB) ScheduleEpoch(demand DemandMbps, shareUnused bool) (ServedMbps, float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	plmns := make([]slice.PLMN, 0, len(e.reserved))
	offered := make([]float64, 0, len(e.reserved))
	for r := e.head; r != nil; r = r.next {
		r.item = len(plmns)
		plmns = append(plmns, r.plmn)
		offered = append(offered, demand[r.plmn])
	}
	delivered := make([]float64, len(plmns))
	util := e.scheduleLocked(offered, delivered, shareUnused)
	served := make(ServedMbps, len(plmns))
	for i, p := range plmns {
		served[p] = delivered[i]
	}
	return served, util
}
