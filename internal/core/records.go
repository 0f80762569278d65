package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/slice"
	"repro/internal/transport"
	"repro/internal/wal"
)

// This file is the durable schema (DESIGN.md §9.1): the nine log record
// types, the checkpoint blob, and — for each of them and for every type
// nested inside — one walker that lists its fields in wire order. A walker
// is the only place a field is spelled for the log: wal.Codec runs it to
// encode and runs the same function to decode, so there is no second reader
// or writer to keep in step. The framing layer (internal/wal) is
// payload-agnostic; these records are the orchestration-level redo log, each
// carrying the full logged *outcome* of a state transition (PRBs per eNB,
// path hops and bandwidth, MEC host, money and ledger movements), so replay
// imposes recorded decisions instead of re-deriving them — the environment
// that shaped the original decision (CQI fades, MEC brownouts) is not
// durable, and re-running the decision logic against a rebuilt default
// environment could diverge.

// formatVersion is the first byte of every record payload and of the
// checkpoint blob. Any change to a walked type — a field added, dropped,
// reordered or retyped — must change it (TestRecordLayoutPinned fails until
// it does); payloads of another version are refused, not migrated.
const formatVersion byte = 1

// errRecordFormat marks a WAL payload or checkpoint blob that is not in this
// version's format.
var errRecordFormat = errors.New("core: not in this version's WAL format")

// record is a top-level durable value — a log record payload or the
// checkpoint blob — that lists its fields to a codec.
type record interface{ wire(c *wal.Codec) }

// encodeRecord returns r's payload: the version byte, then its fields.
func encodeRecord(r record) []byte {
	c := wal.Encoder(append(make([]byte, 0, 512), formatVersion))
	r.wire(c)
	return c.Bytes()
}

// decodeRecord fills r from a payload, refusing whatever is not exactly one
// value of this version.
func decodeRecord(b []byte, r record) error {
	if len(b) == 0 || b[0] != formatVersion {
		return fmt.Errorf("%w: payload starts with % x, want format version %d", errRecordFormat, b[:min(1, len(b))], formatVersion)
	}
	c := wal.Decoder(b[1:])
	r.wire(c)
	if err := c.Finish(); err != nil {
		return fmt.Errorf("%w: %v", errRecordFormat, err)
	}
	return nil
}

// Record type tags of the orchestration redo log.
const (
	recAdmit    = "admit"
	recReject   = "reject"
	recActivate = "activate"
	recTeardown = "teardown"
	recResize   = "resize"
	recReroute  = "reroute"
	recEpoch    = "epoch"
	recLink     = "link"
	recShutdown = "shutdown"
)

// logRecordTypes maps a log record's type tag to its struct. Each record is
// the outcome of one transition; the transition's applier (apply.go) is what
// both the live operation and replay (recover.go) run on it.
var logRecordTypes = map[string]func() record{
	recAdmit:    func() record { return new(admitRecord) },
	recReject:   func() record { return new(rejectRecord) },
	recActivate: func() record { return new(activateRecord) },
	recTeardown: func() record { return new(teardownRecord) },
	recResize:   func() record { return new(resizeRecord) },
	recReroute:  func() record { return new(rerouteRecord) },
	recEpoch:    func() record { return new(epochRecord) },
	recLink:     func() record { return new(linkRecord) },
	recShutdown: func() record { return new(shutdownRecord) },
}

// logPayload is what a log record's payload walks: the record, then the
// lifecycle events its operation published, under their bus-assigned
// sequence numbers — replay re-inserts them once the record has applied.
type logPayload struct {
	rec    record
	events []Event
}

func (p *logPayload) wire(c *wal.Codec) {
	p.rec.wire(c)
	wal.Slice(c, &p.events, wireEvent)
}

// decodeLogRecord decodes a log record into the struct its type tag names,
// and its events.
func decodeLogRecord(r wal.Record) (record, []Event, error) {
	mk := logRecordTypes[r.Type]
	if mk == nil {
		return nil, nil, fmt.Errorf("unknown record type %q", r.Type)
	}
	rec := mk()
	p := logPayload{rec: rec}
	err := decodeRecord(r.Payload, &p)
	return rec, p.events, err
}

// RecordJSON renders a log record's payload as JSON for inspection
// (`slicectl wal`, tests outside this package): nothing else needs to know
// the wire layout. The JSON is a view, not a format — nothing reads it back.
func RecordJSON(r wal.Record) ([]byte, error) {
	rec, events, err := decodeLogRecord(r)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Record record  `json:"record"`
		Events []Event `json:"events"`
	}{rec, events})
}

// wirePath walks one transport path outcome — the reservation exactly as the
// transport holds it: the hops and bandwidth the original run reserved, so
// replay re-imposes the same route even if the (unlogged) topology weather
// would steer a fresh computation elsewhere.
func wirePath(c *wal.Codec, p *transport.Reservation) {
	wal.Str(c, &p.ID)
	wal.Slice(c, &p.Hops, wal.Str[string])
	c.Float64(&p.Mbps)
	c.Float64(&p.DelayMs)
}

// admitRecord logs a successful admission: the slice's full durable image
// (state Installing, allocation populated) plus every substrate outcome the
// install transaction produced.
type admitRecord struct {
	Slice        slice.Persisted         `json:"slice"`
	ReservedKbps slice.Kbps              `json:"reserved_kbps"`
	Paths        []transport.Reservation `json:"paths,omitempty"`
	MECHost      string                  `json:"mec_host,omitempty"`
	MECCPU       float64                 `json:"mec_cpu,omitempty"`
	SubmittedAt  time.Time               `json:"submitted_at"`
	ActivateAt   time.Time               `json:"activate_at"`
}

func (r *admitRecord) wire(c *wal.Codec) {
	wirePersisted(c, &r.Slice)
	wal.Int(c, &r.ReservedKbps)
	wal.Slice(c, &r.Paths, wirePath)
	wal.Str(c, &r.MECHost)
	c.Float64(&r.MECCPU)
	c.Time(&r.SubmittedAt)
	c.Time(&r.ActivateAt)
}

// rejectRecord logs a rejection. A reservation the admission path took and
// released before failing cancelled exactly and leaves nothing to log.
type rejectRecord struct {
	Slice slice.Persisted `json:"slice"`
}

func (r *rejectRecord) wire(c *wal.Codec) {
	wirePersisted(c, &r.Slice)
}

// activateRecord logs the vEPC-boot completion that turned a slice Active.
type activateRecord struct {
	Slice slice.ID  `json:"slice"`
	At    time.Time `json:"at"`
}

func (r *activateRecord) wire(c *wal.Codec) {
	wal.Str(c, &r.Slice)
	c.Time(&r.At)
}

// teardownRecord logs a teardown from any live state (tenant delete,
// expiry, EPC boot failure, unrecoverable link failure). The event carries
// the taxonomy type (deleted/expired) and post-transition state.
type teardownRecord struct {
	Slice  slice.ID `json:"slice"`
	Reason string   `json:"reason"`
}

func (r *teardownRecord) wire(c *wal.Codec) {
	wal.Str(c, &r.Slice)
	wal.Str(c, &r.Reason)
}

// resizeRecord logs a multi-domain reallocation outcome. Mbps and PRBs are
// the post-resize radio allocation; MECMbps is the throughput the MEC app
// was sized from (the radio-quantized value on engine resizes, the raw fair
// share on degradation shrinks). ResizePaths records whether transport
// reservations were resized to Mbps (engine resizes) or left to a preceding
// reroute record (degradation shrinks).
type resizeRecord struct {
	Slice       slice.ID       `json:"slice"`
	Mbps        float64        `json:"mbps"`
	PRBs        map[string]int `json:"prbs"`
	MECMbps     float64        `json:"mec_mbps"`
	ResizePaths bool           `json:"resize_paths"`
}

func (r *resizeRecord) wire(c *wal.Codec) {
	wal.Str(c, &r.Slice)
	c.Float64(&r.Mbps)
	c.IntMap(&r.PRBs)
	c.Float64(&r.MECMbps)
	c.Bool(&r.ResizePaths)
}

// rerouteRecord logs a restoration re-route: the replacement paths at their
// reserved bandwidth. The degradation shrink's interim re-route logs no
// events (the following resizeRecord carries the EventResized).
type rerouteRecord struct {
	Slice        slice.ID                `json:"slice"`
	Paths        []transport.Reservation `json:"paths"`
	WorstDelayMs float64                 `json:"worst_delay_ms"`
}

func (r *rerouteRecord) wire(c *wal.Codec) {
	wal.Str(c, &r.Slice)
	wal.Slice(c, &r.Paths, wirePath)
	c.Float64(&r.WorstDelayMs)
}

// epochItemRecord is one measured slice's epoch outcome. Counted mirrors
// whether the analysis phase reached the slice alive (RecordEpoch and the
// forecaster observation ran); Charged whether the commit phase actually
// billed the violation; LedgerUpdated/LedgerTo the capacity-ledger roll.
type epochItemRecord struct {
	Slice         slice.ID   `json:"slice"`
	Demand        float64    `json:"demand"`
	Served        float64    `json:"served"`
	Counted       bool       `json:"counted,omitempty"`
	Charged       bool       `json:"charged,omitempty"`
	LedgerUpdated bool       `json:"ledger_updated,omitempty"`
	LedgerTo      slice.Kbps `json:"ledger_to_kbps,omitempty"`
}

func wireEpochItem(c *wal.Codec, it *epochItemRecord) {
	wal.Str(c, &it.Slice)
	c.Float64(&it.Demand)
	c.Float64(&it.Served)
	c.Bool(&it.Counted)
	c.Bool(&it.Charged)
	c.Bool(&it.LedgerUpdated)
	wal.Int(c, &it.LedgerTo)
}

// epochRecord logs one control-epoch pass. Resize outcomes of the epoch are
// separate resizeRecords appended (in commit order) before this record;
// Snapshot is the published EpochSnapshot verbatim — including gain fields
// derived from the unlogged radio environment — so recovery restores the
// read plane bit-identically.
type epochRecord struct {
	Epoch    int64             `json:"epoch"`
	At       time.Time         `json:"at"`
	RANUtil  float64           `json:"ran_util"`
	Items    []epochItemRecord `json:"items,omitempty"`
	Snapshot EpochSnapshot     `json:"snapshot"`
}

func (r *epochRecord) wire(c *wal.Codec) {
	wal.Int(c, &r.Epoch)
	c.Time(&r.At)
	c.Float64(&r.RANUtil)
	wal.Slice(c, &r.Items, wireEpochItem)
	wireEpochSnapshot(c, &r.Snapshot)
}

// linkRecord logs a transport-link transition driven through the
// orchestrator (failure, degradation, restoration). Per-victim outcomes
// follow as their own records in WAL order.
type linkRecord struct {
	Kind         string  `json:"kind"` // "fail" | "degrade" | "restore"
	From         string  `json:"from"`
	To           string  `json:"to"`
	CapacityMbps float64 `json:"capacity_mbps,omitempty"`
}

func (r *linkRecord) wire(c *wal.Codec) {
	wal.Str(c, &r.Kind)
	wal.Str(c, &r.From)
	wal.Str(c, &r.To)
	c.Float64(&r.CapacityMbps)
}

// shutdownRecord logs a clean daemon shutdown: recovery knows the previous
// run ended at a commit boundary, and subscribers that were draining when
// the process died can observe the terminal event after restart.
type shutdownRecord struct {
	At time.Time `json:"at"`
}

func (r *shutdownRecord) wire(c *wal.Codec) {
	c.Time(&r.At)
}

// Walkers of the types nested in the records above and the blob below.

func wireEvent(c *wal.Codec, ev *Event) {
	wal.Int(c, &ev.Seq)
	c.Time(&ev.Time)
	wal.Str(c, &ev.Type)
	wal.Str(c, &ev.Slice)
	wal.Str(c, &ev.Tenant)
	wal.Str(c, &ev.State)
	wal.Str(c, &ev.RejectCode)
	c.Float64(&ev.Mbps)
	wal.Str(c, &ev.Link)
	wal.Str(c, &ev.Detail)
}

func wirePLMN(c *wal.Codec, p *slice.PLMN) {
	wal.Str(c, &p.MCC)
	wal.Str(c, &p.MNC)
}

func wireCause(c *wal.Codec, rc *slice.RejectionCause) {
	wal.Str(c, &rc.Code)
	wal.Str(c, &rc.Domain)
	wal.Str(c, &rc.Detail)
}

func wirePersisted(c *wal.Codec, p *slice.Persisted) {
	wal.Str(c, &p.ID)
	wal.Str(c, &p.Request.Tenant)
	c.Float64(&p.Request.SLA.ThroughputMbps)
	c.Float64(&p.Request.SLA.MaxLatencyMs)
	wal.Int(c, &p.Request.SLA.Duration)
	c.Float64(&p.Request.SLA.PriceEUR)
	c.Float64(&p.Request.SLA.PenaltyEUR)
	wal.Int(c, &p.Request.SLA.Class)
	c.Bool(&p.Request.SLA.EdgeCompute)
	c.Time(&p.Request.Arrival)
	wal.Int(c, &p.State)
	wal.Str(c, &p.Reason)
	wal.Ptr(c, &p.Cause, wireCause)
	c.Time(&p.Created)
	c.Time(&p.Starts)
	c.Time(&p.Expires)
	c.Float64(&p.Allocation.AllocatedMbps)
	c.IntMap(&p.Allocation.PRBs)
	wal.Slice(c, &p.Allocation.PathIDs, wal.Str[string])
	c.Float64(&p.Allocation.PathLatencyMs)
	wal.Str(c, &p.Allocation.DataCenter)
	wal.Str(c, &p.Allocation.StackID)
	wal.Str(c, &p.Allocation.EPCID)
	wal.Str(c, &p.Allocation.MECAppID)
	wirePLMN(c, &p.Allocation.PLMN)
	wal.Int(c, &p.ViolationEpochs)
	wal.Int(c, &p.ServedEpochs)
	c.Float64(&p.PenaltyEUR)
	c.Float64(&p.DemandMbps)
	c.Float64(&p.ServedMbps)
}

func wireEpochSnapshot(c *wal.Codec, s *EpochSnapshot) {
	wal.Int(c, &s.Epoch)
	c.Time(&s.At)
	wal.Int(c, &s.MeasuredSlices)
	c.Float64(&s.RANUtilization)
	c.Float64(&s.Gain.CapacityMbps)
	c.Float64(&s.Gain.ContractedMbps)
	c.Float64(&s.Gain.AllocatedMbps)
	c.Float64(&s.Gain.OverbookingRatio)
	c.Float64(&s.Gain.MultiplexingGain)
	wal.Int(c, &s.Gain.Admitted)
	wal.Int(c, &s.Gain.Rejected)
	wal.Int(c, &s.Gain.Active)
	c.IntMap(&s.Gain.RejectReasons)
	c.Float64(&s.Gain.RevenueTotalEUR)
	c.Float64(&s.Gain.PenaltyTotalEUR)
	c.Float64(&s.Gain.NetRevenueEUR)
	wal.Int(c, &s.Gain.ViolationEpochs)
	wal.Int(c, &s.Gain.Reconfigurations)
	wal.Int(c, &s.Gain.Epochs)
}

func wireTimeline(c *wal.Codec, tl *InstallTimeline) {
	c.Time(&tl.Submitted)
	c.Time(&tl.RadioDone)
	c.Time(&tl.PathsDone)
	c.Time(&tl.StackDone)
	c.Time(&tl.Active)
}

// checkpointState is the full-state checkpoint blob (snapshot payload):
// everything recovery needs to rebuild the orchestrator without replaying
// the log from its beginning. Not captured — and documented as such in
// DESIGN.md §9 — are forecaster internals (re-driven from tail epoch
// records only), the monitoring store, and environment perturbations (CQI,
// MEC host capacities); recovered slices re-impose their logged outcomes
// onto a default-environment testbed.
type checkpointState struct {
	// EventNext is the bus's next sequence number.
	EventNext int64
	// Epochs is the control-loop pass counter.
	Epochs int64
	// SeqCounter is the slice-ID sequence counter.
	SeqCounter int64
	// LastEpoch is the published epoch snapshot, verbatim.
	LastEpoch *EpochSnapshot
	PLMN      slice.PLMNState
	// Counters are the global sums of the per-shard counters (gain.go).
	Counters counterState
	// History is the bounded finished-slice eviction queue, in order.
	History []slice.ID
	// Links is the transport topology's per-link up/capacity state.
	Links []linkState
	// Slices are the registry's slices in submission order, each with its
	// substrate outcomes for re-imposition.
	Slices []persistedSlice
}

func (st *checkpointState) wire(c *wal.Codec) {
	wal.Int(c, &st.EventNext)
	wal.Int(c, &st.Epochs)
	wal.Int(c, &st.SeqCounter)
	wal.Ptr(c, &st.LastEpoch, wireEpochSnapshot)
	wal.Int(c, &st.PLMN.Next)
	wal.Slice(c, &st.PLMN.Free, wirePLMN)
	wal.Slice(c, &st.PLMN.InUse, func(c *wal.Codec, a *slice.PLMNAssignment) {
		wirePLMN(c, &a.PLMN)
		wal.Str(c, &a.Owner)
	})
	wal.Int(c, &st.Counters.Admitted)
	wal.Int(c, &st.Counters.Rejected)
	wal.Int(c, &st.Counters.Violations)
	wal.Int(c, &st.Counters.Reconfigurations)
	wal.Int(c, &st.Counters.Active)
	wal.Int(c, &st.Counters.Revenue)
	wal.Int(c, &st.Counters.Penalty)
	wal.Int(c, &st.Counters.Contracted)
	wal.Int(c, &st.Counters.Allocated)
	c.IntMap(&st.Counters.RejectReasons)
	wal.Slice(c, &st.History, wal.Str[slice.ID])
	wal.Slice(c, &st.Links, wireLink)
	wal.Slice(c, &st.Slices, wirePersistedSlice)
}

// linkState is one transport link's durable state.
type linkState struct {
	From         string
	To           string
	Up           bool
	CapacityMbps float64
}

func wireLink(c *wal.Codec, ls *linkState) {
	wal.Str(c, &ls.From)
	wal.Str(c, &ls.To)
	c.Bool(&ls.Up)
	c.Float64(&ls.CapacityMbps)
}

// persistedSlice is one registry entry in the checkpoint: the slice's full
// durable image plus the orchestrator-level bookkeeping and substrate
// outcomes that live outside the slice. The capacity ledger has no field of
// its own: it is exactly the sum of the LedgerKbps entries, and restore
// rebuilds it from them — so a reservation an in-flight install holds at the
// cut (engine.go's squeeze window: registered nowhere, nothing logged yet)
// is not double-counted when its admit record replays.
type persistedSlice struct {
	Slice      slice.Persisted
	LedgerKbps slice.Kbps
	// Paths / MECHost / MECCPU capture substrate outcomes for live slices
	// (empty for rejected/terminated entries kept only for the dashboard).
	Paths      []transport.Reservation
	MECHost    string
	MECCPU     float64
	ActivateAt time.Time
	LastDemand float64
	HaveDemand bool
	Timeline   *InstallTimeline
}

func wirePersistedSlice(c *wal.Codec, ps *persistedSlice) {
	wirePersisted(c, &ps.Slice)
	wal.Int(c, &ps.LedgerKbps)
	wal.Slice(c, &ps.Paths, wirePath)
	wal.Str(c, &ps.MECHost)
	c.Float64(&ps.MECCPU)
	c.Time(&ps.ActivateAt)
	c.Float64(&ps.LastDemand)
	c.Bool(&ps.HaveDemand)
	wal.Ptr(c, &ps.Timeline, wireTimeline)
}
