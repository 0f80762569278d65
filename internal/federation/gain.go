package federation

import (
	"maps"
	"sort"

	"repro/internal/core"
)

// Stats counts federation-tier outcomes — span placements, not member
// admissions (a 2-leg span is one installed span here and two admitted
// slices in the aggregated member gain).
type Stats struct {
	SpansInstalled    int            `json:"spans_installed"`
	SpansRejected     int            `json:"spans_rejected"`
	SpansCrossCluster int            `json:"spans_cross_cluster"`
	SpansLive         int            `json:"spans_live"`
	Barriers          int            `json:"barriers"`
	RejectReasons     map[string]int `json:"reject_reasons,omitempty"`
}

// Stats returns the federation-tier counters.
func (f *Federation) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{
		SpansInstalled:    f.admitted,
		SpansRejected:     f.rejected,
		SpansCrossCluster: f.crossCluster,
		SpansLive:         len(f.spans),
		Barriers:          f.barriers,
	}
	if len(f.rejectReasons) > 0 {
		s.RejectReasons = maps.Clone(f.rejectReasons)
	}
	return s
}

// ClusterGain pairs a member with its gain report.
type ClusterGain struct {
	Cluster string          `json:"cluster"`
	Gain    core.GainReport `json:"gain"`
}

// ClusterGains returns every member's gain report in name order — the
// canonical fold order, so downstream aggregation is bit-identical across
// member orderings.
func (f *Federation) ClusterGains() []ClusterGain {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ClusterGain, 0, len(f.members))
	for _, c := range f.members {
		out = append(out, ClusterGain{Cluster: c.cfg.Name, Gain: c.orch.Gain()})
	}
	return out
}

// Gain returns the federated multiplexing-gain report: every member's report
// folded in name order (see core.AggregateGain for the fold semantics).
func (f *Federation) Gain() core.GainReport {
	gains := f.ClusterGains()
	reports := make([]core.GainReport, len(gains))
	for i, g := range gains {
		reports[i] = g.Gain
	}
	return core.AggregateGain(reports)
}

// ClusterEvent is one member lifecycle event tagged with its cluster.
type ClusterEvent struct {
	Cluster string `json:"cluster"`
	core.Event
}

// RecentEvents merges the members' retained lifecycle events into one
// federation-wide stream: ordered by time, then cluster name, then the
// member-local sequence number, keeping the most recent n overall.
func (f *Federation) RecentEvents(n int) []ClusterEvent {
	f.mu.Lock()
	var all []ClusterEvent
	for _, c := range f.members {
		for _, ev := range c.orch.Events().Recent(n) {
			all = append(all, ClusterEvent{Cluster: c.cfg.Name, Event: ev})
		}
	}
	f.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool {
		if !all[i].Time.Equal(all[j].Time) {
			return all[i].Time.Before(all[j].Time)
		}
		if all[i].Cluster != all[j].Cluster {
			return all[i].Cluster < all[j].Cluster
		}
		return all[i].Seq < all[j].Seq
	})
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}
