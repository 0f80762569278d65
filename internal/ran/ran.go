// Package ran models the radio access network of the testbed: LTE eNBs
// supporting the Multi Operator Core Network (MOCN) RAN-sharing model, where
// each network slice is mapped onto a dedicated PLMN with a reserved share
// of Physical Resource Blocks (PRBs).
//
// The demo used two NEC MB4420 small cells. The orchestrator's RAN
// controller never touches symbols or HARQ; it reserves PRB budgets per
// PLMN, resizes them when the overbooking engine reconfigures, and reads
// back utilization. This package therefore models exactly that control
// surface plus a per-TTI-abstracted scheduler that converts PRB budgets at
// the cell's mean CQI into served throughput.
package ran

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/slice"
)

// prbsPerCarrier is the PRB grid of one 20 MHz component carrier (3GPP TS
// 36.101 Table 5.6-1), the channel of the demo's MB4420 small cells.
const prbsPerCarrier = 100

// defaultMeanCQI is the channel quality a cell starts at; only a chaos fade
// (SetMeanCQI) moves it.
const defaultMeanCQI = 12

// cqiEfficiency maps CQI 1..15 to spectral efficiency in bits/symbol
// (3GPP TS 36.213 Table 7.2.3-1). Index 0 is out-of-range (no service).
var cqiEfficiency = [16]float64{
	0,      // CQI 0: out of range
	0.1523, // QPSK 78/1024
	0.2344,
	0.3770,
	0.6016,
	0.8770,
	1.1758,
	1.4766, // 16QAM starts
	1.9141,
	2.4063,
	2.7305, // 64QAM starts
	3.3223,
	3.9023,
	4.5234,
	5.1152,
	5.5547,
}

// Efficiency returns the spectral efficiency (bits/symbol) for a CQI in
// 0..15; out-of-range CQIs clamp.
func Efficiency(cqi int) float64 {
	if cqi < 0 {
		cqi = 0
	}
	if cqi > 15 {
		cqi = 15
	}
	return cqiEfficiency[cqi]
}

// PRBThroughputMbps returns the downlink throughput of one PRB sustained
// over a second at the given CQI. A PRB is 12 subcarriers; with a normal
// cyclic prefix there are 14 OFDM symbols per 1 ms subframe, of which ~11
// carry data after control/reference overhead (3 symbols PDCCH+CRS).
func PRBThroughputMbps(cqi int) float64 {
	const (
		subcarriers      = 12
		dataSymbolsPerMs = 11
	)
	bitsPerMs := Efficiency(cqi) * subcarriers * dataSymbolsPerMs
	return bitsPerMs / 1000 // kbit/ms == Mbit/s
}

// Errors returned by the eNB reservation API. The orchestrator surfaces
// them as admission-rejection reasons.
var (
	ErrInsufficientPRBs = errors.New("ran: insufficient free PRBs")
	ErrUnknownPLMN      = errors.New("ran: PLMN has no reservation")
	ErrPLMNListFull     = errors.New("ran: MOCN broadcast list full")
	ErrAlreadyReserved  = errors.New("ran: PLMN already has a reservation")
)

// Config describes one eNB.
type Config struct {
	// Name identifies the eNB ("enb-1", "enb-2" in the testbed).
	Name string
	// Carriers aggregates this many 20 MHz component carriers into one
	// logical cell (default 1, the demo's single-carrier MB4420).
	// Scale-out simulations raise it so thousands of slices fit one cell's
	// PRB grid; the control surface (reserve/resize/release per PLMN) is
	// unchanged.
	Carriers int
	// MaxPLMNs bounds the MOCN broadcast list (SIB1 allows 6).
	MaxPLMNs int
}

// ENB is one MOCN-sharing eNode-B. All methods are safe for concurrent use.
type ENB struct {
	cfg Config

	mu       sync.Mutex
	reserved map[slice.PLMN]*cellRes // reservation per PLMN
	// head/tail are the reservations as a doubly linked list in reservation
	// order — the MOCN broadcast list, and the order the scheduler sums idle
	// and used PRBs in, so it is part of the determinism contract. A list,
	// not a slice: a release unlinks the record it holds instead of searching
	// for it.
	head, tail *cellRes
	used       int // sum of reserved PRBs, kept incrementally so
	// the free-PRB check on every reserve/resize is O(1) instead of a scan
	// over all PLMNs (the control epoch resizes every slice every period).

	// perPRB is the throughput one PRB sustains at the mean CQI, the sizing
	// constant of every reserve and resize and the rate of every scheduling
	// pass; recomputed only by SetMeanCQI.
	perPRB float64
}

// cellRes is one PLMN's reservation on a cell. The scheduler's per-pass
// working state lives on the same record, so a scheduling pass walks the
// reservations in place instead of copying the order and the PRB budgets and
// building a state list every epoch.
type cellRes struct {
	plmn slice.PLMN
	prbs int
	// live is cleared at release: a Handle that outlives its reservation then
	// resizes nothing, even after the PLMN was reserved here again.
	live       bool
	prev, next *cellRes

	// Scheduler scratch, meaningful only inside one scheduling pass (under
	// the cell mutex): the index of the load it offers in the pass's dense
	// input (-1 when it offered none), the PRBs its demand needs (fractional)
	// and those granted so far.
	item    int
	want    float64
	granted float64
}

// NewENB validates cfg and returns the eNB, its channel at the default
// mean CQI.
func NewENB(cfg Config) (*ENB, error) {
	if cfg.Name == "" {
		return nil, errors.New("ran: eNB needs a name")
	}
	if cfg.MaxPLMNs <= 0 {
		cfg.MaxPLMNs = slice.DefaultPLMNLimit
	}
	if cfg.Carriers <= 0 {
		cfg.Carriers = 1
	}
	return &ENB{cfg: cfg, reserved: make(map[slice.PLMN]*cellRes), perPRB: perPRBAt(defaultMeanCQI)}, nil
}

// perPRBAt is the per-PRB throughput at a mean channel quality.
func perPRBAt(meanCQI float64) float64 { return PRBThroughputMbps(int(math.Round(meanCQI))) }

// Name returns the eNB name.
func (e *ENB) Name() string { return e.cfg.Name }

// TotalPRBs returns the schedulable PRBs, the grid across all aggregated
// carriers.
func (e *ENB) TotalPRBs() int { return prbsPerCarrier * e.cfg.Carriers }

// FreePRBs returns unreserved schedulable PRBs.
func (e *ENB) FreePRBs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.freeLocked()
}

func (e *ENB) freeLocked() int { return e.TotalPRBs() - e.used }

// CapacityMbps returns the cell capacity at the mean CQI.
func (e *ENB) CapacityMbps() float64 { return e.ThroughputForPRBs(e.TotalPRBs()) }

// PRBsForThroughput converts a required throughput into a PRB budget at the
// eNB's mean CQI, rounding up. It is the sizing function the RAN controller
// uses when translating an orchestrator reservation into radio resources.
func (e *ENB) PRBsForThroughput(mbps float64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sizeLocked(mbps)
}

func (e *ENB) sizeLocked(mbps float64) int {
	if mbps <= 0 {
		return 0
	}
	return int(math.Ceil(mbps / e.perPRB))
}

// grantLocked is the one sizing step of every reservation the RAN controller
// sizes — a reserve, a resize and the read-only SizeFor: the PRBs mbps needs
// at the mean CQI, at least one so the cell keeps the slice schedulable, and
// the throughput they sustain. The caller holds the cell mutex.
func (e *ENB) grantLocked(mbps float64) (prbs int, granted float64) {
	prbs = max(e.sizeLocked(mbps), 1)
	return prbs, float64(prbs) * e.perPRB
}

// ThroughputForPRBs is the inverse sizing function at mean CQI.
func (e *ENB) ThroughputForPRBs(prbs int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return float64(prbs) * e.perPRB
}

// Handle addresses one PLMN's reservation on one cell without naming it: the
// RAN controller resolves it once, when the slice is installed, and resizes
// through it from then on. It stays valid until that reservation is released;
// afterwards it fails with ErrUnknownPLMN and touches nothing. Cells are
// never removed from a RAN, so the cell a handle points at outlives it. The
// zero Handle is a released one.
type Handle struct {
	e *ENB
	r *cellRes
}

// Cell returns the eNB holding the reservation.
func (h Handle) Cell() *ENB { return h.e }

// PRBs returns the reservation's current size, and false once it has been
// released.
//
// Kept: core's TestBindingTracksSubstrate checks every held cell with it.
func (h Handle) PRBs() (int, bool) {
	if h.e == nil {
		return 0, false
	}
	h.e.mu.Lock()
	defer h.e.mu.Unlock()
	if !h.r.live {
		return 0, false
	}
	return h.r.prbs, true
}

// Reserve dedicates prbs to the PLMN, adding it to the MOCN broadcast list,
// and returns the reservation's handle.
func (e *ENB) Reserve(p slice.PLMN, prbs int) (Handle, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, err := e.reserveLocked(p, prbs)
	if err != nil {
		return Handle{}, err
	}
	return Handle{e, r}, nil
}

// ReserveThroughput sizes a reservation for mbps at the mean CQI — at least
// one PRB, so the cell keeps the slice schedulable — and makes it, in one
// critical section. It returns the reservation's handle, the PRBs dedicated
// and the throughput they sustain.
func (e *ENB) ReserveThroughput(p slice.PLMN, mbps float64) (h Handle, prbs int, granted float64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	prbs, granted = e.grantLocked(mbps)
	r, err := e.reserveLocked(p, prbs)
	if err != nil {
		return Handle{}, 0, 0, err
	}
	return Handle{e, r}, prbs, granted, nil
}

func (e *ENB) reserveLocked(p slice.PLMN, prbs int) (*cellRes, error) {
	if prbs <= 0 {
		return nil, fmt.Errorf("ran: reservation of %d PRBs on %s must be positive", prbs, e.cfg.Name)
	}
	if _, ok := e.reserved[p]; ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrAlreadyReserved, p, e.cfg.Name)
	}
	if len(e.reserved) >= e.cfg.MaxPLMNs {
		return nil, fmt.Errorf("%w: %d PLMNs on %s", ErrPLMNListFull, len(e.reserved), e.cfg.Name)
	}
	if prbs > e.freeLocked() {
		return nil, fmt.Errorf("%w: want %d, free %d on %s", ErrInsufficientPRBs, prbs, e.freeLocked(), e.cfg.Name)
	}
	r := &cellRes{plmn: p, prbs: prbs, live: true, prev: e.tail}
	if e.tail != nil {
		e.tail.next = r
	} else {
		e.head = r
	}
	e.tail = r
	e.reserved[p] = r
	e.used += prbs
	return r, nil
}

// Resize changes the reservation to prbs (the overbooking reconfiguration
// primitive). Growing fails if free PRBs do not cover the increase.
func (h Handle) Resize(prbs int) error {
	if h.e == nil {
		return ErrUnknownPLMN
	}
	h.e.mu.Lock()
	defer h.e.mu.Unlock()
	return h.e.resizeLocked(h.r, prbs)
}

// ResizeThroughput re-sizes the reservation for mbps at the mean CQI (at
// least one PRB) in one critical section: read the previous size, size the
// new one, check headroom, write. It returns the previous PRBs — what a
// caller resizing several cells puts back on failure — the new PRBs and the
// throughput they sustain.
func (h Handle) ResizeThroughput(mbps float64) (prev, prbs int, granted float64, err error) {
	if h.e == nil {
		return 0, 0, 0, ErrUnknownPLMN
	}
	e := h.e
	e.mu.Lock()
	prev = h.r.prbs
	prbs, granted = e.grantLocked(mbps)
	if err := e.resizeLocked(h.r, prbs); err != nil {
		e.mu.Unlock()
		return 0, 0, 0, err
	}
	e.mu.Unlock()
	return prev, prbs, granted, nil
}

// SizeFor answers what ResizeThroughput(mbps) would do without doing it, in
// one critical section that writes nothing: the PRBs the reservation holds,
// those it would hold and the throughput they would sustain. It does not
// check headroom, so a grow it sizes may still fail to fit. ok is false once
// the reservation has been released.
func (h Handle) SizeFor(mbps float64) (held, prbs int, granted float64, ok bool) {
	if h.e == nil {
		return 0, 0, 0, false
	}
	e := h.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if !h.r.live {
		return 0, 0, 0, false
	}
	prbs, granted = e.grantLocked(mbps)
	return h.r.prbs, prbs, granted, true
}

func (e *ENB) resizeLocked(r *cellRes, prbs int) error {
	if !r.live {
		return fmt.Errorf("%w: %s on %s", ErrUnknownPLMN, r.plmn, e.cfg.Name)
	}
	if prbs <= 0 {
		return fmt.Errorf("ran: resize to %d PRBs must be positive (release instead)", prbs)
	}
	delta := prbs - r.prbs
	if delta > e.freeLocked() {
		return fmt.Errorf("%w: grow by %d, free %d on %s", ErrInsufficientPRBs, delta, e.freeLocked(), e.cfg.Name)
	}
	r.prbs = prbs
	e.used += delta
	return nil
}

// Release removes the PLMN's reservation and broadcast entry. Unknown PLMNs
// are a no-op so teardown is idempotent.
func (e *ENB) Release(p slice.PLMN) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.reserved[p]; ok {
		e.unlinkLocked(r)
	}
}

// Release frees the reservation the handle addresses. A handle whose
// reservation is already gone frees nothing, even after its PLMN was
// reserved on the cell again, so a second release is harmless.
func (h Handle) Release() {
	if h.e == nil {
		return
	}
	h.e.mu.Lock()
	defer h.e.mu.Unlock()
	if h.r.live {
		h.e.unlinkLocked(h.r)
	}
}

// unlinkLocked drops a live reservation from the index, the PRB total and
// the broadcast list, and marks it dead.
func (e *ENB) unlinkLocked(r *cellRes) {
	delete(e.reserved, r.plmn)
	e.used -= r.prbs
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		e.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		e.tail = r.prev
	}
	r.live, r.prev, r.next = false, nil, nil
}

// SetMeanCQI rescales the cell's channel quality (clamped to 1..15) — the
// chaos model of eNB capacity loss: a deep fade or interference event cuts
// the throughput every PRB sustains, shrinking CapacityMbps and the
// orchestrator's overbooking budget while existing PRB reservations stay
// intact. Admission tightens and resizes re-quantize at the new CQI; no
// reservation is invalidated, so the books stay conserved throughout.
func (e *ENB) SetMeanCQI(cqi float64) {
	if cqi < 1 {
		cqi = 1
	}
	if cqi > 15 {
		cqi = 15
	}
	e.mu.Lock()
	e.perPRB = perPRBAt(cqi)
	e.mu.Unlock()
}

// AuditConservation cross-checks the cell's incremental PRB accounting
// against ground truth and returns one message per discrepancy (empty when
// the books balance): the used counter must equal the sum of per-PLMN
// reservations, free PRBs must never go negative, every reservation must be
// positive, and the broadcast-list order must mirror the reservation map.
// It is the radio half of the invariant auditor's conservation sweep.
func (e *ENB) AuditConservation() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	sum := 0
	for p, r := range e.reserved {
		if r.prbs <= 0 {
			out = append(out, fmt.Sprintf("ran %s: PLMN %s holds non-positive reservation %d", e.cfg.Name, p, r.prbs))
		}
		sum += r.prbs
	}
	if sum != e.used {
		out = append(out, fmt.Sprintf("ran %s: used counter %d != sum of reservations %d", e.cfg.Name, e.used, sum))
	}
	if e.freeLocked() < 0 {
		out = append(out, fmt.Sprintf("ran %s: negative slack (%d free of %d)", e.cfg.Name, e.freeLocked(), e.TotalPRBs()))
	}
	listed := 0
	for r, prev := e.head, (*cellRes)(nil); r != nil; r, prev = r.next, r {
		listed++
		if e.reserved[r.plmn] != r || !r.live {
			out = append(out, fmt.Sprintf("ran %s: broadcast list entry %s has no reservation", e.cfg.Name, r.plmn))
		}
		if r.prev != prev || (r.next == nil && e.tail != r) {
			out = append(out, fmt.Sprintf("ran %s: broadcast list is mislinked at %s", e.cfg.Name, r.plmn))
		}
	}
	if listed != len(e.reserved) {
		out = append(out, fmt.Sprintf("ran %s: broadcast list has %d entries, reservation map %d", e.cfg.Name, listed, len(e.reserved)))
	}
	if len(e.reserved) > e.cfg.MaxPLMNs {
		out = append(out, fmt.Sprintf("ran %s: %d PLMNs exceed MOCN list bound %d", e.cfg.Name, len(e.reserved), e.cfg.MaxPLMNs))
	}
	return out
}

// Reservation returns the PRBs currently dedicated to the PLMN.
func (e *ENB) Reservation(p slice.PLMN) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.reserved[p]
	if !ok {
		return 0, false
	}
	return r.prbs, true
}

// BroadcastList returns the PLMNs in the MOCN SIB1 list, in reservation
// order.
func (e *ENB) BroadcastList() []slice.PLMN {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]slice.PLMN, 0, len(e.reserved))
	for r := e.head; r != nil; r = r.next {
		out = append(out, r.plmn)
	}
	return out
}

// DemandMbps is the per-PLMN offered load for one scheduling epoch.
type DemandMbps map[slice.PLMN]float64

// ServedMbps is the per-PLMN throughput delivered in one epoch.
type ServedMbps map[slice.PLMN]float64

// ScheduleIndexed is the name-addressed pass on dense inputs: the
// reservation of PLMN p offers demand[index[p]] Mbps on this cell, and the
// throughput the cell delivers to it is added to served[index[p]] (the
// caller sums cells into one array). Reservations whose PLMN is not in index
// offer no load. It walks the cell's own list to mark the load, runs the
// pass ScheduleBound runs, and returns the cell's PRB utilization in [0,1].
func (e *ENB) ScheduleIndexed(index map[slice.PLMN]int, demand, served []float64, shareUnused bool) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for r := e.head; r != nil; r = r.next {
		r.item = -1
		if i, ok := index[r.plmn]; ok {
			r.item = i
		}
	}
	return e.scheduleLocked(demand, served, shareUnused)
}

// ScheduleBound is the handle-addressed pass on dense inputs: the slice whose
// per-cell handles are bound[i] offers demand[i] Mbps on this cell, and the
// throughput the cell delivers to it is added to served[i] (the caller sums
// cells into one array). Only handles naming this cell count, wherever they
// sit in bound[i]. A released handle schedules nothing, even when its PLMN
// has been reserved here again: its record is off the reservation list the
// pass walks, so its mark is never read. Reserved slices no handle names
// offer no load. It returns the cell's PRB utilization in [0,1].
//
// The marks are written under the cell mutex, and the pass runs under it on
// the live reservation list, in reservation order — the order the idle/used
// PRB sums have always been accumulated in, so results are bit-identical to
// ScheduleEpoch's over the same load.
func (e *ENB) ScheduleBound(bound [][]Handle, demand, served []float64, shareUnused bool) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for r := e.head; r != nil; r = r.next {
		r.item = -1
	}
	for i, hs := range bound {
		for _, h := range hs {
			if h.e == e {
				h.r.item = i
			}
		}
	}
	return e.scheduleLocked(demand, served, shareUnused)
}

// scheduleLocked is the scheduling pass over the cell's reservation list,
// each record's load marked in item by the caller (-1: no load). The caller
// holds the cell mutex.
func (e *ENB) scheduleLocked(demand, served []float64, shareUnused bool) float64 {
	perPRB := e.perPRB // positive: the mean CQI is at least 1
	idle := 0.0
	usedPRBs := 0.0
	for r := e.head; r != nil; r = r.next {
		d := 0.0
		if r.item >= 0 {
			d = demand[r.item]
		}
		budget := float64(r.prbs)
		r.want = d / perPRB
		r.granted = math.Min(r.want, budget)
		if r.granted < 0 {
			r.granted = 0
		}
		idle += budget - r.granted
		usedPRBs += r.granted
	}

	if shareUnused && idle > 1e-9 {
		// Redistribute idle PRBs to saturated slices proportionally to
		// their unmet demand, iterating because a grant can satiate.
		for iter := 0; iter < 4 && idle > 1e-9; iter++ {
			totalUnmet := 0.0
			for r := e.head; r != nil; r = r.next {
				if r.want > r.granted {
					totalUnmet += r.want - r.granted
				}
			}
			if totalUnmet <= 1e-9 {
				break
			}
			share := math.Min(idle, totalUnmet)
			for r := e.head; r != nil; r = r.next {
				if r.want <= r.granted {
					continue
				}
				extra := share * (r.want - r.granted) / totalUnmet
				if r.granted+extra > r.want {
					extra = r.want - r.granted
				}
				r.granted += extra
				idle -= extra
				usedPRBs += extra
			}
		}
	}

	for r := e.head; r != nil; r = r.next {
		if r.item >= 0 {
			served[r.item] += r.granted * perPRB
		}
	}
	util := 0.0
	if t := float64(e.TotalPRBs()); t > 0 {
		util = usedPRBs / t
	}
	return util
}

// Utilization returns the fraction of schedulable PRBs currently reserved.
func (e *ENB) Utilization() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := float64(e.TotalPRBs())
	if t == 0 {
		return 0
	}
	return float64(e.TotalPRBs()-e.freeLocked()) / t
}

// Snapshot summarises the eNB state for telemetry.
type Snapshot struct {
	Name string `json:"name"`
	// Bandwidth is each carrier's channel, always "20MHz".
	Bandwidth   string            `json:"bandwidth"`
	TotalPRBs   int               `json:"total_prbs"`
	FreePRBs    int               `json:"free_prbs"`
	Utilization float64           `json:"utilization"`
	PLMNs       []PLMNReservation `json:"plmns"`
}

// PLMNReservation is one entry of the snapshot.
type PLMNReservation struct {
	PLMN slice.PLMN `json:"plmn"`
	PRBs int        `json:"prbs"`
}

// Snapshot captures the eNB state.
func (e *ENB) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Snapshot{
		Name:      e.cfg.Name,
		Bandwidth: "20MHz",
		TotalPRBs: e.TotalPRBs(),
		FreePRBs:  e.freeLocked(),
	}
	if s.TotalPRBs > 0 {
		s.Utilization = float64(s.TotalPRBs-s.FreePRBs) / float64(s.TotalPRBs)
	}
	for r := e.head; r != nil; r = r.next {
		s.PLMNs = append(s.PLMNs, PLMNReservation{PLMN: r.plmn, PRBs: r.prbs})
	}
	return s
}

// Network is the RAN domain: the set of eNBs the RAN controller manages.
// All methods are safe for concurrent use; lookups take a shared read lock
// because every slice installation walks the eNB set.
type Network struct {
	mu   sync.RWMutex
	enbs map[string]*ENB
}

// NewNetwork returns an empty RAN domain.
func NewNetwork() *Network { return &Network{enbs: make(map[string]*ENB)} }

// Add registers an eNB; duplicate names error.
func (n *Network) Add(e *ENB) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.enbs[e.Name()]; ok {
		return fmt.Errorf("ran: duplicate eNB %q", e.Name())
	}
	n.enbs[e.Name()] = e
	return nil
}

// Get returns the named eNB.
func (n *Network) Get(name string) (*ENB, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	e, ok := n.enbs[name]
	return e, ok
}

// Names lists eNB names sorted.
func (n *Network) Names() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.enbs))
	for name := range n.enbs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns the eNBs sorted by name.
func (n *Network) All() []*ENB {
	names := n.Names()
	out := make([]*ENB, 0, len(names))
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, name := range names {
		out = append(out, n.enbs[name])
	}
	return out
}
