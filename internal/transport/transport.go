// Package transport models the demo's transport network: mmWave and µWave
// wireless links plus wired segments interconnected through an OpenFlow
// programmable switch (NEC ProgrammableFlow PF5240 in the testbed), giving
// the orchestrator different topology configurations with predefined
// capacity and delay characteristics.
//
// The transport controller's job in the demo is to select dedicated paths
// that guarantee the delay and capacity each slice requires, installing
// flow entries in the switches. This package provides the graph, per-link
// bandwidth accounting, flow tables, and the delay-constrained path
// computation the controller runs.
package transport

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeKind classifies topology nodes.
type NodeKind int

// Node kinds in the testbed topology.
const (
	// KindSwitch is a programmable (OpenFlow) switch.
	KindSwitch NodeKind = iota
	// KindENB is a radio access point's transport port.
	KindENB
	// KindDC is a data-center gateway.
	KindDC
)

// String returns the kind name.
func (k NodeKind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindENB:
		return "enb"
	case KindDC:
		return "dc"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// LinkType distinguishes the three transport technologies in the testbed.
type LinkType int

// Link technologies.
const (
	// Wired is fibre/copper: high capacity, lowest delay variance.
	Wired LinkType = iota
	// MmWave is the millimetre-wave hop: very high capacity, short reach.
	MmWave
	// MicroWave is the µWave hop: moderate capacity, longer reach.
	MicroWave
)

// String returns the link-type name.
func (lt LinkType) String() string {
	switch lt {
	case Wired:
		return "wired"
	case MmWave:
		return "mmWave"
	case MicroWave:
		return "µWave"
	default:
		return fmt.Sprintf("LinkType(%d)", int(lt))
	}
}

// Link is a directed edge with capacity/delay characteristics.
type Link struct {
	From, To     string
	Type         LinkType
	CapacityMbps float64
	DelayMs      float64
	// Up is false when the link has failed or been administratively
	// disabled (topology reconfiguration).
	Up bool

	reservedMbps float64
	byPath       map[string]float64
	// fromIdx/toIdx are the dense node indices of From/To, assigned at
	// AddLink time so path computation runs on int-indexed arrays instead
	// of string-keyed maps.
	fromIdx, toIdx int32
}

// key identifies the directed link.
func (l *Link) key() string { return l.From + "->" + l.To }

// ResidualMbps returns unreserved capacity.
func (l *Link) ResidualMbps() float64 { return l.CapacityMbps - l.reservedMbps }

// ReservedMbps returns currently reserved bandwidth.
func (l *Link) ReservedMbps() float64 { return l.reservedMbps }

// Utilization returns reserved/capacity in [0,1].
func (l *Link) Utilization() float64 {
	if l.CapacityMbps <= 0 {
		return 0
	}
	return l.reservedMbps / l.CapacityMbps
}

// Errors surfaced to the orchestrator as rejection reasons.
var (
	ErrNoPath         = errors.New("transport: no feasible path")
	ErrInsufficientBW = errors.New("transport: insufficient residual bandwidth")
	ErrUnknownNode    = errors.New("transport: unknown node")
	ErrUnknownPath    = errors.New("transport: unknown path reservation")
	ErrDuplicatePath  = errors.New("transport: path ID already reserved")
	ErrLinkExists     = errors.New("transport: link already exists")
	ErrDelayBudget    = errors.New("transport: delay budget unmeetable")
)

// FlowEntry is one OpenFlow-style rule installed in a switch: traffic of
// a path arriving from prev is forwarded to next.
type FlowEntry struct {
	PathID  string `json:"path_id"`
	InPort  string `json:"in_port"`  // previous hop node (ingress for "")
	OutPort string `json:"out_port"` // next hop node
}

// Network is the transport topology with per-link reservations and per-node
// flow tables. All methods are safe for concurrent use; read-only queries
// (path computation, utilization, snapshots) take a shared read lock, so
// concurrent slice installations only serialize on the short reserve/release
// critical sections.
type Network struct {
	mu    sync.RWMutex
	nodes map[string]NodeKind
	names []string                // dense index -> node name, insertion order
	idx   map[string]int32        // node name -> dense index
	links map[string]*Link        // key: "a->b"
	adjx  [][]*Link               // outgoing links per dense node index
	paths map[string]*Reservation // by path ID
	flows map[string][]FlowEntry  // per-switch flow table

	// linkScratch backs pathLinksScratchLocked: a working array for
	// transient hop→link resolution on the reserve/release/resize paths,
	// reused under the exclusive lock so steady-state churn allocates
	// nothing here.
	linkScratch []*Link

	// topoVer counts node/link-set changes (AddNode, AddLink) and guards
	// cached node-kind lists held by callers. feasVer counts every state
	// change that can flip a feasibility answer — topology changes plus
	// SetLinkUp, SetLinkCapacity, Reserve, Release, and Resize — and
	// guards memoized Feasible outcomes. Both only ever increase.
	topoVer atomic.Uint64
	feasVer atomic.Uint64
}

// Reservation records one reserved path.
type Reservation struct {
	ID      string   `json:"id"`
	Hops    []string `json:"hops"` // node sequence, src..dst
	Mbps    float64  `json:"mbps"`
	DelayMs float64  `json:"delay_ms"`
}

// NewNetwork returns an empty topology.
func NewNetwork() *Network {
	return &Network{
		nodes: make(map[string]NodeKind),
		idx:   make(map[string]int32),
		links: make(map[string]*Link),
		paths: make(map[string]*Reservation),
		flows: make(map[string][]FlowEntry),
	}
}

// Version returns the feasibility version: a counter bumped by every state
// change that can alter the outcome of a feasibility or path query. Callers
// may memoize query results keyed by this value; equal versions guarantee
// equal answers.
func (n *Network) Version() uint64 { return n.feasVer.Load() }

// TopoVersion returns the topology version: a counter bumped only when the
// node or link set changes. Callers may cache node-kind lists keyed by it.
func (n *Network) TopoVersion() uint64 { return n.topoVer.Load() }

// AddNode registers a node; re-adding with the same kind is a no-op.
func (n *Network) AddNode(name string, kind NodeKind) error {
	if name == "" {
		return errors.New("transport: empty node name")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if k, ok := n.nodes[name]; ok {
		if k != kind {
			return fmt.Errorf("transport: node %q already exists with kind %v", name, k)
		}
		return nil
	}
	n.nodes[name] = kind
	n.idx[name] = int32(len(n.names))
	n.names = append(n.names, name)
	n.adjx = append(n.adjx, nil)
	n.topoVer.Add(1)
	n.feasVer.Add(1)
	return nil
}

// AddLink installs a directed link.
func (n *Network) AddLink(from, to string, lt LinkType, capacityMbps, delayMs float64) error {
	if capacityMbps <= 0 || delayMs < 0 {
		return fmt.Errorf("transport: link %s->%s capacity %.1f / delay %.2f invalid", from, to, capacityMbps, delayMs)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[from]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	if _, ok := n.nodes[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	l := &Link{
		From: from, To: to, Type: lt, CapacityMbps: capacityMbps, DelayMs: delayMs,
		Up: true, byPath: map[string]float64{},
		fromIdx: n.idx[from], toIdx: n.idx[to],
	}
	if _, ok := n.links[l.key()]; ok {
		return fmt.Errorf("%w: %s", ErrLinkExists, l.key())
	}
	n.links[l.key()] = l
	n.adjx[l.fromIdx] = append(n.adjx[l.fromIdx], l)
	n.topoVer.Add(1)
	n.feasVer.Add(1)
	return nil
}

// AddBiLink installs the link in both directions with identical
// characteristics (each direction has its own capacity, as on real
// full-duplex links).
func (n *Network) AddBiLink(a, b string, lt LinkType, capacityMbps, delayMs float64) error {
	if err := n.AddLink(a, b, lt, capacityMbps, delayMs); err != nil {
		return err
	}
	return n.AddLink(b, a, lt, capacityMbps, delayMs)
}

// SetLinkUp marks a directed link up/down (failure injection and the demo's
// "different transport network topology configurations").
func (n *Network) SetLinkUp(from, to string, up bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[from+"->"+to]
	if !ok {
		return fmt.Errorf("transport: no link %s->%s", from, to)
	}
	l.Up = up
	n.feasVer.Add(1)
	return nil
}

// SetLinkCapacity rescales a directed link's capacity — the rain-fade /
// interference model for the wireless hops (mmWave links lose most of
// their budget in heavy rain; µWave degrades more gently). Existing
// reservations are kept even if they now exceed the shrunk capacity: the
// link is oversubscribed until the orchestrator reacts (residual goes
// negative, so no new reservation or growth passes the checks).
// OversubscribedPaths lists the affected reservations.
func (n *Network) SetLinkCapacity(from, to string, capacityMbps float64) error {
	if capacityMbps <= 0 {
		return fmt.Errorf("transport: capacity %.2f must be positive (use SetLinkUp to fail the link)", capacityMbps)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[from+"->"+to]
	if !ok {
		return fmt.Errorf("transport: no link %s->%s", from, to)
	}
	l.CapacityMbps = capacityMbps
	n.feasVer.Add(1)
	return nil
}

// OversubscribedPaths returns the path IDs reserved over links whose
// reserved bandwidth now exceeds capacity (after a degradation), sorted.
func (n *Network) OversubscribedPaths() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, l := range n.links {
		if !l.Up || l.reservedMbps <= l.CapacityMbps+1e-9 {
			continue
		}
		for id := range l.byPath {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Link returns a copy of the directed link's current state.
func (n *Network) Link(from, to string) (Link, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l, ok := n.links[from+"->"+to]
	if !ok {
		return Link{}, false
	}
	cp := *l
	cp.byPath = nil
	return cp, true
}

// Nodes returns node names sorted.
func (n *Network) Nodes() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NodesOfKind returns the sorted names of nodes with the given kind.
func (n *Network) NodesOfKind(kind NodeKind) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []string
	for name, k := range n.nodes {
		if k == kind {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// appendPathLinks resolves a hop sequence into links appended to dst,
// validating adjacency. Links are found through the dense adjacency index
// rather than the "a->b"-keyed map: node out-degrees are small and the
// scan avoids building a key string per segment on the reserve/release
// hot path. Safe under either lock mode (read-only lookups).
func (n *Network) appendPathLinks(dst []*Link, hops []string) ([]*Link, error) {
	if len(hops) < 2 {
		return nil, fmt.Errorf("transport: path needs >= 2 hops, got %d", len(hops))
	}
	for i := 0; i+1 < len(hops); i++ {
		var l *Link
		if fromIdx, ok := n.idx[hops[i]]; ok {
			for _, cand := range n.adjx[fromIdx] {
				if cand.To == hops[i+1] {
					l = cand
					break
				}
			}
		}
		if l == nil {
			return nil, fmt.Errorf("transport: no link %s->%s in path", hops[i], hops[i+1])
		}
		dst = append(dst, l)
	}
	return dst, nil
}

// pathLinksLocked resolves a hop sequence into a fresh link slice; safe
// under n.mu in either mode.
func (n *Network) pathLinksLocked(hops []string) ([]*Link, error) {
	return n.appendPathLinks(make([]*Link, 0, len(hops)-1), hops)
}

// pathLinksScratchLocked is pathLinksLocked backed by the network's scratch
// array. Callers must hold n.mu EXCLUSIVELY and drop the result before
// releasing the lock — the next call reuses the backing array.
func (n *Network) pathLinksScratchLocked(hops []string) ([]*Link, error) {
	links, err := n.appendPathLinks(n.linkScratch[:0], hops)
	if links != nil {
		n.linkScratch = links
	}
	return links, err
}

// Reserve atomically reserves mbps along hops under pathID, installing flow
// entries in every intermediate switch. Either all links are reserved or
// none.
func (n *Network) Reserve(pathID string, hops []string, mbps float64) (*Reservation, error) {
	if mbps <= 0 {
		return nil, fmt.Errorf("transport: reservation of %.2f Mbps must be positive", mbps)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.paths[pathID]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicatePath, pathID)
	}
	links, err := n.pathLinksScratchLocked(hops)
	if err != nil {
		return nil, err
	}
	delay := 0.0
	for _, l := range links {
		if !l.Up {
			return nil, fmt.Errorf("transport: link %s down", l.key())
		}
		if l.ResidualMbps() < mbps-1e-9 {
			return nil, fmt.Errorf("%w: %s residual %.2f < %.2f", ErrInsufficientBW, l.key(), l.ResidualMbps(), mbps)
		}
		delay += l.DelayMs
	}
	for _, l := range links {
		l.reservedMbps += mbps
		l.byPath[pathID] = mbps
	}
	r := &Reservation{ID: pathID, Hops: append([]string(nil), hops...), Mbps: mbps, DelayMs: delay}
	n.paths[pathID] = r
	n.installFlowsLocked(r)
	n.feasVer.Add(1)
	return r, nil
}

// installFlowsLocked writes OpenFlow entries for the path into each switch
// node it traverses.
func (n *Network) installFlowsLocked(r *Reservation) {
	for i, hop := range r.Hops {
		if n.nodes[hop] != KindSwitch {
			continue
		}
		in := ""
		if i > 0 {
			in = r.Hops[i-1]
		}
		out := ""
		if i+1 < len(r.Hops) {
			out = r.Hops[i+1]
		}
		n.flows[hop] = append(n.flows[hop], FlowEntry{PathID: r.ID, InPort: in, OutPort: out})
	}
}

// removeFlowsLocked drops the path's OpenFlow entries. Flows were installed
// only on the reservation's own hops, so only those switches' tables need
// touching — and install writes exactly one entry per (hop, path), so the
// scan stops at the first hit instead of filtering the whole table.
func (n *Network) removeFlowsLocked(r *Reservation) {
	for _, hop := range r.Hops {
		entries, ok := n.flows[hop]
		if !ok {
			continue
		}
		for i := range entries {
			if entries[i].PathID == r.ID {
				n.flows[hop] = append(entries[:i], entries[i+1:]...)
				break
			}
		}
	}
}

// Release frees the path's bandwidth and flow entries. Unknown IDs are a
// no-op (idempotent teardown).
func (n *Network) Release(pathID string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.paths[pathID]
	if !ok {
		return
	}
	if links, err := n.pathLinksScratchLocked(r.Hops); err == nil {
		for _, l := range links {
			l.reservedMbps -= l.byPath[pathID]
			if l.reservedMbps < 0 {
				l.reservedMbps = 0
			}
			delete(l.byPath, pathID)
		}
	}
	n.removeFlowsLocked(r)
	delete(n.paths, pathID)
	n.feasVer.Add(1)
}

// Resize changes the path's reservation to mbps, atomically.
func (n *Network) Resize(pathID string, mbps float64) error {
	if mbps <= 0 {
		return fmt.Errorf("transport: resize to %.2f Mbps must be positive", mbps)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.paths[pathID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPath, pathID)
	}
	return n.resizeLocked(r, mbps)
}

// resizeLocked re-sizes one registered path on every link it crosses, or on
// none. The caller holds n.mu exclusively.
func (n *Network) resizeLocked(r *Reservation, mbps float64) error {
	links, err := n.pathLinksScratchLocked(r.Hops)
	if err != nil {
		return err
	}
	for _, l := range links {
		delta := mbps - l.byPath[r.ID]
		if delta > l.ResidualMbps()+1e-9 {
			return fmt.Errorf("%w: %s residual %.2f < grow %.2f", ErrInsufficientBW, l.key(), l.ResidualMbps(), delta)
		}
	}
	for _, l := range links {
		l.reservedMbps += mbps - l.byPath[r.ID]
		l.byPath[r.ID] = mbps
	}
	r.Mbps = mbps
	n.feasVer.Add(1)
	return nil
}

// ResizeEach re-sizes every listed path to mbps in list order under one
// lock acquisition — the per-slice resize of the control epoch, which moves
// all of a slice's paths to the same share. Each path's capacity check sees
// the paths before it already re-sized (they may share links), exactly as a
// sequence of Resize calls would. On the first failure the paths already
// re-sized are put back to their previous bandwidths and the failing path's
// ID is returned with the error; an unknown path fails before anything moves.
func (n *Network) ResizeEach(pathIDs []string, mbps float64) (failed string, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var prevBuf [8]float64 // previous bandwidths, for the unwind; one path per eNB
	prev := prevBuf[:0]
	for _, pid := range pathIDs {
		r, ok := n.paths[pid]
		if !ok {
			return pid, fmt.Errorf("%w: %s", ErrUnknownPath, pid)
		}
		prev = append(prev, r.Mbps)
	}
	if mbps <= 0 && len(pathIDs) > 0 {
		return pathIDs[0], fmt.Errorf("transport: resize to %.2f Mbps must be positive", mbps)
	}
	for i, pid := range pathIDs {
		if err := n.resizeLocked(n.paths[pid], mbps); err != nil {
			for j := 0; j < i; j++ {
				// A path that held prev[j] a moment ago fits it again unless
				// a shared link was oversubscribed meanwhile; like the
				// sequential unwind this replaces, that is left as is.
				_ = n.resizeLocked(n.paths[pathIDs[j]], prev[j])
			}
			return pid, err
		}
	}
	return "", nil
}

// Reservation returns a copy of the named path reservation.
func (n *Network) Reservation(pathID string) (Reservation, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	r, ok := n.paths[pathID]
	if !ok {
		return Reservation{}, false
	}
	cp := *r
	cp.Hops = append([]string(nil), r.Hops...)
	return cp, true
}

// Reservations returns a copy of every path reservation, sorted by ID —
// the leak-check enumeration the invariant auditor maps back onto live
// slices.
func (n *Network) Reservations() []Reservation {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Reservation, 0, len(n.paths))
	for _, r := range n.paths {
		cp := *r
		cp.Hops = append([]string(nil), r.Hops...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AuditConservation cross-checks the per-link bandwidth books against
// ground truth and returns one message per discrepancy (empty when the
// books balance): each link's reserved counter must equal the sum of its
// per-path entries, per-path entries must belong to registered paths, every
// registered path must hold an entry on each of its links, and reserved
// bandwidth must never go negative. Links whose reservations exceed a
// (degraded) capacity are not flagged — SetLinkCapacity documents that
// oversubscription as legitimate until the orchestrator reacts.
func (n *Network) AuditConservation() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []string
	keys := make([]string, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		l := n.links[k]
		sum := 0.0
		for id, mbps := range l.byPath {
			if _, ok := n.paths[id]; !ok {
				out = append(out, fmt.Sprintf("transport %s: per-path entry %q has no registered reservation", k, id))
			}
			if mbps <= 0 {
				out = append(out, fmt.Sprintf("transport %s: path %q reserves non-positive %.3f Mbps", k, id, mbps))
			}
			sum += mbps
		}
		if d := l.reservedMbps - sum; d > 1e-6 || d < -1e-6 {
			out = append(out, fmt.Sprintf("transport %s: reserved counter %.3f != sum of path entries %.3f", k, l.reservedMbps, sum))
		}
		if l.reservedMbps < -1e-9 {
			out = append(out, fmt.Sprintf("transport %s: negative reserved bandwidth %.3f", k, l.reservedMbps))
		}
	}
	for id, r := range n.paths {
		links, err := n.pathLinksLocked(r.Hops)
		if err != nil {
			out = append(out, fmt.Sprintf("transport path %q: hops no longer resolve: %v", id, err))
			continue
		}
		for _, l := range links {
			if _, ok := l.byPath[id]; !ok {
				out = append(out, fmt.Sprintf("transport path %q: link %s holds no entry for it", id, l.key()))
			}
		}
	}
	sort.Strings(out)
	return out
}

// FlowTable returns a copy of the switch's flow entries.
func (n *Network) FlowTable(node string) []FlowEntry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]FlowEntry(nil), n.flows[node]...)
}

// PathsOverLink lists path IDs reserved over the directed link, sorted —
// used to find victims when a link fails.
func (n *Network) PathsOverLink(from, to string) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l, ok := n.links[from+"->"+to]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(l.byPath))
	for id := range l.byPath {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Utilization returns mean and max link utilization over up links.
func (n *Network) Utilization() (mean, max float64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	// Sum in sorted link order: float addition is not associative, and this
	// mean is recorded as epoch telemetry, which fixed-seed runs must
	// reproduce bit-for-bit — map iteration order would leak into the bits.
	keys := make([]string, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cnt := 0
	for _, k := range keys {
		l := n.links[k]
		if !l.Up {
			continue
		}
		u := l.Utilization()
		mean += u
		if u > max {
			max = u
		}
		cnt++
	}
	if cnt > 0 {
		mean /= float64(cnt)
	}
	return mean, max
}

// LinkSnapshot is one row of the topology view.
type LinkSnapshot struct {
	From         string  `json:"from"`
	To           string  `json:"to"`
	Type         string  `json:"type"`
	CapacityMbps float64 `json:"capacity_mbps"`
	ReservedMbps float64 `json:"reserved_mbps"`
	DelayMs      float64 `json:"delay_ms"`
	Up           bool    `json:"up"`
}

// Snapshot lists all links sorted by key.
func (n *Network) Snapshot() []LinkSnapshot {
	n.mu.RLock()
	defer n.mu.RUnlock()
	keys := make([]string, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]LinkSnapshot, 0, len(keys))
	for _, k := range keys {
		l := n.links[k]
		out = append(out, LinkSnapshot{
			From: l.From, To: l.To, Type: l.Type.String(),
			CapacityMbps: l.CapacityMbps, ReservedMbps: l.reservedMbps,
			DelayMs: l.DelayMs, Up: l.Up,
		})
	}
	return out
}
