package federation

import (
	"fmt"
	"sort"

	"repro/internal/slice"
)

// The federation's transitions: a verb decides (placement, member calls,
// ground-truth reads) under f.mu and ends in one apply of one transition.
type (
	// memberJoined registers a member with its books primed from a reading.
	memberJoined struct {
		member
		read reading
	}
	// spanPlaced registers an installed span and debits its leg contracts.
	spanPlaced struct{ span span }
	// spanRejected counts a refused submission (the books were never
	// written: a member rejection's earlier legs are deleted before it).
	spanRejected struct{ code slice.RejectCode }
	// legsDropped retires registered spans: they leave the registry and
	// the reserved book. A reachable member's headroom is credited; an
	// unreachable member's leg is orphaned until its heal.
	legsDropped struct{ ids []slice.ID }
	// memberPartitioned and memberFailed cut a member off and drop the
	// spans that touched it.
	memberPartitioned struct {
		legsDropped
		name string
	}
	memberFailed memberPartitioned
	// memberHealed reconnects a member (its orphans deleted) and
	// re-anchors its books.
	memberHealed struct {
		name string
		reading
	}
	// booksReanchored is one barrier: every reachable member's books snap
	// to the reading taken in the same event.
	booksReanchored map[string]reading
)

// reading is one member's ground truth as a refresh takes it.
type reading struct {
	advertised slice.Kbps // radio capacity times the member's utilization cap
	ledger     slice.Kbps // the member's capacity-ledger load
	epoch      int
}

// apply writes one transition: it is the only writer of the registry, the
// spans, the orphans, the books, the flags and the counters, and it reads
// no member. Under Config.Audit the transition is also folded into the
// oracle tier, which must then equal the live one.
func (f *Federation) apply(tr any) {
	switch t := tr.(type) {
	case memberJoined:
		c := &Cluster{member: t.member}
		c.anchor(t.read)
		f.byName[t.cfg.Name] = c
		f.members = append(f.members, c)
		sort.Slice(f.members, func(i, j int) bool { return f.members[i].cfg.Name < f.members[j].cfg.Name })
	case spanPlaced:
		f.spanSeq++
		f.spans[t.span.id] = &t.span
		for _, leg := range t.span.legs {
			f.byName[leg.Cluster].headroom -= leg.contract
			f.byName[leg.Cluster].reserved += leg.contract
		}
		f.admitted++
		if len(t.span.legs) > 1 {
			f.crossCluster++
		}
	case spanRejected:
		f.spanSeq++
		f.rejected++
		f.rejectReasons[string(t.code)]++
	case legsDropped:
		f.drop(t)
	case memberPartitioned:
		f.byName[t.name].partitioned = true
		f.drop(t.legsDropped)
	case memberFailed:
		f.byName[t.name].failed = true
		f.drop(t.legsDropped)
	case memberHealed:
		f.byName[t.name].partitioned = false
		delete(f.orphans, t.name)
		f.byName[t.name].anchor(t.reading)
	case booksReanchored:
		f.barriers++
		for name, r := range t {
			f.byName[name].anchor(r)
		}
	default:
		panic(fmt.Sprintf("federation: unknown transition %T", tr))
	}
	if f.fold != nil {
		f.fold.apply(tr)
		f.audit.Fold("federation", fmt.Sprintf("%T", tr), f.digestLocked(), f.fold.digestLocked())
	}
}

// drop retires the spans of one legsDropped. An unreachable member's
// headroom is not credited: the member still holds the leg on the far side
// of the partition, and its books stay frozen until the heal re-anchors
// them. The reserved book always drops: it mirrors the span registry.
func (f *Federation) drop(t legsDropped) {
	for _, id := range t.ids {
		for _, leg := range f.spans[id].legs {
			c := f.byName[leg.Cluster]
			if c.alive() {
				c.headroom += leg.contract
			} else {
				f.orphans[leg.Cluster] = append(f.orphans[leg.Cluster], leg.Slice)
			}
			c.reserved -= leg.contract
		}
		delete(f.spans, id)
	}
}

// anchor snaps the member's books to a reading; a fade can drop the bar
// below what the member already carries, hence the clamp.
func (c *Cluster) anchor(r reading) {
	c.reading = r
	c.headroom = max(r.advertised-r.ledger, 0)
}

func (f *Federation) digestLocked() []byte {
	b := fmt.Appendf(nil, "%d %d %d %d %d %v %v\n",
		f.spanSeq, f.barriers, f.admitted, f.rejected, f.crossCluster, f.rejectReasons, f.orphans)
	for _, c := range f.members {
		b = fmt.Appendf(b, "%s %+v\n", c.cfg.Name, c.books)
	}
	for _, sp := range f.liveSpansLocked() {
		b = fmt.Appendf(b, "%d %+v %+v\n", sp.seq, sp.sla, sp.status())
	}
	return b
}
