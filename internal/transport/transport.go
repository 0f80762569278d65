// Package transport models the demo's transport network: mmWave and µWave
// wireless links plus wired segments interconnected through an OpenFlow
// programmable switch (NEC ProgrammableFlow PF5240 in the testbed), giving
// the orchestrator different topology configurations with predefined
// capacity and delay characteristics.
//
// The transport controller's job in the demo is to select dedicated paths
// that guarantee the delay and capacity each slice requires. This package
// provides the graph, per-link bandwidth accounting and the delay-constrained
// path computation the controller runs. Switch flow rules are data-plane
// state and are not modelled: a reservation is its hops and its bandwidth on
// each link.
package transport

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
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
	// byPath is the link's per-path book: the reservations crossing it, by
	// path ID. Each entry's share of reservedMbps is the reservation's Mbps —
	// one number, kept on the Reservation, never mirrored here.
	byPath map[string]*Reservation
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
	ErrNoLink         = errors.New("transport: no link")
)

// Network is the transport topology with per-link reservations. All methods
// are safe for concurrent use; read-only queries (path computation,
// utilization, snapshots) take a shared read lock, so concurrent slice
// installations only serialize on the short reserve/release critical
// sections.
type Network struct {
	mu    sync.RWMutex
	nodes map[string]NodeKind
	names []string         // dense index -> node name, insertion order
	idx   map[string]int32 // node name -> dense index
	links map[string]*Link // key: "a->b"
	// sorted is every link in key order, kept by AddLink (links are never
	// removed): the order the whole-network passes sum in, so a float sum
	// they report reproduces bit for bit.
	sorted []*Link
	adjx   [][]*Link               // outgoing links per dense node index
	paths  map[string]*Reservation // by path ID

	// feasVer counts every state change that can flip a feasibility answer —
	// AddNode, AddLink, SetLinkUp, SetLinkCapacity, Reserve, Release, and
	// Resize. It only ever increases.
	//
	// Kept: feasVer has no reader left but ctrl.TransportController.FeasVersion,
	// which bench/bench_test.go asserts; it goes with ctrl.FeasVersioner
	// (ROADMAP item 6d).
	feasVer atomic.Uint64
}

// Reservation records one reserved path. The pointer Reserve returns is the
// path's handle: ResizeEach and ReleaseEach take it in place of the path ID
// and reach the links through it, resolving nothing. The exported fields of
// a live handle are read under the network's lock only; Reservation and
// Reservations hand out detached copies.
type Reservation struct {
	ID      string   `json:"id"`
	Hops    []string `json:"hops"` // node sequence, src..dst
	Mbps    float64  `json:"mbps"`
	DelayMs float64  `json:"delay_ms"`

	// net is the network holding the reservation, nil once released: a handle
	// that outlives its reservation resizes and releases nothing, even after
	// the path ID was reserved again.
	net *Network
	// links are Hops resolved at Reserve. Links are never removed from a
	// network and AddLink refuses duplicates, so the resolution cannot go out
	// of date.
	links []*Link
	// linkBuf backs links for paths of the usual length (the testbed's are
	// eNB, one or two switches, DC), so that a reservation is one
	// allocation. The slice points into the struct, which is therefore never
	// copied (see detached).
	linkBuf [3]*Link
}

// detached returns a copy safe to hand out: its own hop list, no handle state.
func (r *Reservation) detached() Reservation {
	return Reservation{ID: r.ID, Hops: append([]string(nil), r.Hops...), Mbps: r.Mbps, DelayMs: r.DelayMs}
}

// NewNetwork returns an empty topology.
func NewNetwork() *Network {
	return &Network{
		nodes: make(map[string]NodeKind),
		idx:   make(map[string]int32),
		links: make(map[string]*Link),
		paths: make(map[string]*Reservation),
	}
}

// Version returns the feasibility version: a counter bumped by every state
// change that can alter the outcome of a feasibility or path query; equal
// versions guarantee equal answers.
func (n *Network) Version() uint64 { return n.feasVer.Load() }

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
		Up: true, byPath: map[string]*Reservation{},
		fromIdx: n.idx[from], toIdx: n.idx[to],
	}
	if _, ok := n.links[l.key()]; ok {
		return fmt.Errorf("%w: %s", ErrLinkExists, l.key())
	}
	n.links[l.key()] = l
	at, _ := slices.BinarySearchFunc(n.sorted, l.key(), func(x *Link, k string) int { return strings.Compare(x.key(), k) })
	n.sorted = slices.Insert(n.sorted, at, l)
	n.adjx[l.fromIdx] = append(n.adjx[l.fromIdx], l)
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
		return fmt.Errorf("%w %s->%s", ErrNoLink, from, to)
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
		return fmt.Errorf("%w %s->%s", ErrNoLink, from, to)
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
// rather than the "a->b"-keyed map: node out-degrees are small and the scan
// avoids building a key string per segment. Safe under n.mu in either mode.
// It runs once per reservation, at Reserve; everything later goes through
// the links the reservation keeps.
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

// Reserve atomically reserves mbps along hops under pathID. Either all links
// are reserved or none. The returned reservation is the path's handle.
func (n *Network) Reserve(pathID string, hops []string, mbps float64) (*Reservation, error) {
	if mbps <= 0 {
		return nil, fmt.Errorf("transport: reservation of %.2f Mbps must be positive", mbps)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.paths[pathID]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicatePath, pathID)
	}
	r := &Reservation{ID: pathID, Hops: append([]string(nil), hops...), Mbps: mbps, net: n}
	links, err := n.appendPathLinks(r.linkBuf[:0], hops)
	if err != nil {
		return nil, err
	}
	r.links = links
	for _, l := range links {
		if !l.Up {
			return nil, fmt.Errorf("transport: link %s down", l.key())
		}
		if l.ResidualMbps() < mbps-1e-9 {
			return nil, fmt.Errorf("%w: %s residual %.2f < %.2f", ErrInsufficientBW, l.key(), l.ResidualMbps(), mbps)
		}
		r.DelayMs += l.DelayMs
	}
	for _, l := range links {
		l.reservedMbps += mbps
		l.byPath[pathID] = r
	}
	n.paths[pathID] = r
	n.feasVer.Add(1)
	return r, nil
}

// ReleaseEach frees every listed path's bandwidth under one lock
// acquisition. Handles already released are skipped (idempotent teardown).
func (n *Network) ReleaseEach(rs []*Reservation) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range rs {
		if r.net == n {
			n.releaseLocked(r)
		}
	}
}

// releaseLocked takes a live reservation off its links and the registry,
// and kills the handle. Its cost does not depend on how many other paths the
// network holds. The caller holds n.mu exclusively.
func (n *Network) releaseLocked(r *Reservation) {
	for _, l := range r.links {
		l.reservedMbps -= r.Mbps
		if l.reservedMbps < 0 {
			l.reservedMbps = 0
		}
		delete(l.byPath, r.ID)
	}
	delete(n.paths, r.ID)
	r.net, r.links = nil, nil
	n.feasVer.Add(1)
}

// resizeLocked re-sizes one live reservation on every link it crosses, or on
// none. The caller holds n.mu exclusively and bumps feasVer.
func (n *Network) resizeLocked(r *Reservation, mbps float64) error {
	delta := mbps - r.Mbps
	for _, l := range r.links {
		if delta > l.ResidualMbps()+1e-9 {
			return fmt.Errorf("%w: %s residual %.2f < grow %.2f", ErrInsufficientBW, l.key(), l.ResidualMbps(), delta)
		}
	}
	for _, l := range r.links {
		l.reservedMbps += delta
	}
	r.Mbps = mbps
	return nil
}

// ResizeEach re-sizes every listed path to mbps in list order under one
// lock acquisition — the per-slice resize of the control epoch, which moves
// all of a slice's paths to the same share. Each path's capacity check sees
// the paths before it already re-sized (they may share links), exactly as
// re-sizing them one call at a time would. On the first failure the paths already
// re-sized are put back and the failing path's ID is returned with the
// error: every link gets the very value it held before the call (x+d-d is
// not x in floating point, so the unwind restores, it does not subtract). A
// released handle fails with ErrUnknownPath before anything moves.
func (n *Network) ResizeEach(rs []*Reservation, mbps float64) (failed string, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Stack room for the unwind at common sizes: one path per eNB, a few
	// links per path.
	var (
		prevBuf  [8]float64  // each path's bandwidth before the call
		savedBuf [32]float64 // each crossed link's reserved bandwidth before its path moved
	)
	prev, saved := prevBuf[:0], savedBuf[:0]
	for _, r := range rs {
		if r.net != n {
			return r.ID, fmt.Errorf("%w: %s", ErrUnknownPath, r.ID)
		}
		prev = append(prev, r.Mbps)
	}
	if mbps <= 0 && len(rs) > 0 {
		return rs[0].ID, fmt.Errorf("transport: resize to %.2f Mbps must be positive", mbps)
	}
	for i, r := range rs {
		mark := len(saved)
		for _, l := range r.links {
			saved = append(saved, l.reservedMbps)
		}
		if err := n.resizeLocked(r, mbps); err != nil {
			saved = saved[:mark]
			for j := i - 1; j >= 0; j-- {
				links := rs[j].links
				base := len(saved) - len(links)
				for k, l := range links {
					l.reservedMbps = saved[base+k]
				}
				saved = saved[:base]
				rs[j].Mbps = prev[j]
			}
			return r.ID, err
		}
	}
	n.feasVer.Add(1)
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
	return r.detached(), true
}

// Holds reports whether r is a live handle of this network: the reservation
// registered under its path ID, not one released before the ID was reserved
// again.
func (n *Network) Holds(r *Reservation) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return r.net == n && n.paths[r.ID] == r
}

// Reservations returns a copy of every path reservation, sorted by ID —
// the leak-check enumeration the invariant auditor maps back onto live
// slices.
func (n *Network) Reservations() []Reservation {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Reservation, 0, len(n.paths))
	for _, r := range n.paths {
		out = append(out, r.detached())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AuditConservation cross-checks the per-link bandwidth books against
// ground truth and returns one message per discrepancy (empty when the
// books balance): each link's reserved counter must equal the sum of the
// reservations in its per-path book, every such entry must be the registered
// reservation of its ID, every registered path's handle must be live and its
// cached links must be what its hops resolve to now, each holding the path's
// entry, and reserved bandwidth must never go negative. Links whose
// reservations exceed a (degraded) capacity are not flagged — SetLinkCapacity
// documents that oversubscription as legitimate until the orchestrator
// reacts.
func (n *Network) AuditConservation() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []string
	for _, l := range n.sorted {
		k := l.key()
		sum := 0.0
		for id, r := range l.byPath {
			if n.paths[id] != r {
				out = append(out, fmt.Sprintf("transport %s: per-path entry %q has no registered reservation", k, id))
			}
			if r.Mbps <= 0 {
				out = append(out, fmt.Sprintf("transport %s: path %q reserves non-positive %.3f Mbps", k, id, r.Mbps))
			}
			sum += r.Mbps
		}
		if d := l.reservedMbps - sum; d > 1e-6 || d < -1e-6 {
			out = append(out, fmt.Sprintf("transport %s: reserved counter %.3f != sum of path entries %.3f", k, l.reservedMbps, sum))
		}
		if l.reservedMbps < -1e-9 {
			out = append(out, fmt.Sprintf("transport %s: negative reserved bandwidth %.3f", k, l.reservedMbps))
		}
	}
	for id, r := range n.paths {
		if r.net != n {
			out = append(out, fmt.Sprintf("transport path %q: registered under a released handle", id))
		}
		links, err := n.appendPathLinks(nil, r.Hops)
		if err != nil {
			out = append(out, fmt.Sprintf("transport path %q: hops no longer resolve: %v", id, err))
			continue
		}
		if !slices.Equal(links, r.links) {
			out = append(out, fmt.Sprintf("transport path %q: cached links are not what its hops resolve to", id))
		}
		for _, l := range links {
			if l.byPath[id] != r {
				out = append(out, fmt.Sprintf("transport path %q: link %s holds no entry for it", id, l.key()))
			}
		}
	}
	sort.Strings(out)
	return out
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
	cnt := 0
	for _, l := range n.sorted {
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
	out := make([]LinkSnapshot, 0, len(n.sorted))
	for _, l := range n.sorted {
		out = append(out, LinkSnapshot{
			From: l.From, To: l.To, Type: l.Type.String(),
			CapacityMbps: l.CapacityMbps, ReservedMbps: l.reservedMbps,
			DelayMs: l.DelayMs, Up: l.Up,
		})
	}
	return out
}
