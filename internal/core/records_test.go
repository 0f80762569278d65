package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/slice"
	"repro/internal/traffic"
	"repro/internal/transport"
	"repro/internal/wal"
)

// These tests are the record codec's spec (DESIGN.md §9.1): what goes in
// comes out, equal values encode to equal bytes, and nothing but exactly one
// value of this build's format version decodes.

// nastyStrings: what a text format would have to escape — markup, control
// bytes, quotes, invalid UTF-8, U+2028/U+2029, multi-byte runes — and the
// empty string. The codec carries bytes verbatim.
var nastyStrings = []string{
	"",
	"plain",
	`quo"te and back\slash`,
	"<html> & 'friends'",
	"tab\there\nnewline\rcr",
	"ctrl\x00\x01\x1f\x7fbytes",
	"bad utf8 \xff\xfe tail \xc3",
	"line sep   para sep   done",
	"ünïcødé — 网络切片 🛰",
	"trailing backslash \\",
}

// nastyFloats must come back bit for bit: signed zero, denormals, the
// extremes, infinities and a NaN with payload bits.
var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, 1e-7, 1e21, -1e300,
	1.0000000000000002, math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead0000beef),
}

// nastyTimes are in the form decoding produces — UTC, or an unnamed fixed
// zone — because that is all the codec carries of a location: the instant
// and the offset RFC 3339 prints.
var nastyTimes = []time.Time{
	{}, // the zero time is a value like any other
	time.Date(2026, 8, 8, 12, 30, 45, 0, time.UTC),
	time.Date(2026, 8, 8, 12, 30, 45, 123456789, time.UTC),
	time.Date(2026, 8, 8, 12, 30, 45, 120000000, time.FixedZone("", 3600)),
	time.Date(2026, 3, 29, 1, 59, 59, 999999999, time.FixedZone("", -(9*3600+1800))),
	time.Date(1969, 12, 31, 23, 59, 59, 1, time.UTC),
}

func randString(rng *rand.Rand) string  { return nastyStrings[rng.Intn(len(nastyStrings))] }
func randTime(rng *rand.Rand) time.Time { return nastyTimes[rng.Intn(len(nastyTimes))] }

// randFloat skips the NaN (the last entry): reflect.DeepEqual cannot compare
// it. The floats subtest checks its bits directly.
func randFloat(rng *rand.Rand) float64 { return nastyFloats[rng.Intn(len(nastyFloats)-1)] }

// randSlice is nil, empty or populated with equal odds: the three must stay
// distinct through the codec.
func randSlice[T any](rng *rand.Rand, elem func(*rand.Rand) T) []T {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	s := make([]T, rng.Intn(3)+1)
	for i := range s {
		s[i] = elem(rng)
	}
	return s
}

func randIntMap(rng *rand.Rand) map[string]int {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return map[string]int{}
	}
	return map[string]int{"enb-0": rng.Intn(100), "enb-1": -3, "a": 0, "zz": 7, randString(rng): math.MinInt}
}

func randEvent(rng *rand.Rand) Event {
	return Event{
		Seq:        rng.Int63n(1 << 40),
		Time:       randTime(rng),
		Type:       EventType(randString(rng)),
		Slice:      slice.ID(randString(rng)),
		Tenant:     randString(rng),
		State:      randString(rng),
		RejectCode: slice.RejectCode(randString(rng)),
		Mbps:       randFloat(rng),
		Link:       randString(rng),
		Detail:     randString(rng),
	}
}

func randPLMN(rng *rand.Rand) slice.PLMN {
	return slice.PLMN{MCC: randString(rng), MNC: randString(rng)}
}

func randPersisted(rng *rand.Rand) slice.Persisted {
	p := slice.Persisted{
		ID: slice.ID(randString(rng)),
		Request: slice.Request{
			Tenant: randString(rng),
			SLA: slice.SLA{
				ThroughputMbps: randFloat(rng),
				MaxLatencyMs:   randFloat(rng),
				Duration:       time.Duration(rng.Int63() - rng.Int63()),
				PriceEUR:       randFloat(rng),
				PenaltyEUR:     randFloat(rng),
				Class:          slice.ServiceClass(rng.Intn(3)),
				EdgeCompute:    rng.Intn(2) == 0,
			},
			Arrival: randTime(rng),
		},
		State:   slice.State(rng.Intn(6)),
		Reason:  randString(rng),
		Created: randTime(rng),
		Starts:  randTime(rng),
		Expires: randTime(rng),
		Allocation: slice.Allocation{
			AllocatedMbps: randFloat(rng),
			PRBs:          randIntMap(rng),
			PathIDs:       randSlice(rng, randString),
			PathLatencyMs: randFloat(rng),
			DataCenter:    randString(rng),
			StackID:       randString(rng),
			EPCID:         randString(rng),
			MECAppID:      randString(rng),
			PLMN:          randPLMN(rng),
		},
		ViolationEpochs: rng.Intn(3),
		ServedEpochs:    -rng.Intn(3),
		PenaltyEUR:      randFloat(rng),
		DemandMbps:      randFloat(rng),
		ServedMbps:      randFloat(rng),
	}
	if rng.Intn(2) == 0 {
		p.Cause = &slice.RejectionCause{
			Code:   slice.RejectCode(randString(rng)),
			Domain: randString(rng),
			Detail: randString(rng),
		}
	}
	return p
}

func randPath(rng *rand.Rand) transport.Reservation {
	return transport.Reservation{ID: randString(rng), Hops: randSlice(rng, randString), Mbps: randFloat(rng), DelayMs: randFloat(rng)}
}

func randEpochSnapshot(rng *rand.Rand) EpochSnapshot {
	return EpochSnapshot{
		Epoch:          rng.Intn(1 << 20),
		At:             randTime(rng),
		MeasuredSlices: rng.Intn(1024),
		RANUtilization: randFloat(rng),
		Gain: GainReport{
			CapacityMbps: randFloat(rng), ContractedMbps: randFloat(rng), AllocatedMbps: randFloat(rng),
			OverbookingRatio: randFloat(rng), MultiplexingGain: randFloat(rng),
			Admitted: rng.Intn(99), Rejected: rng.Intn(99), Active: rng.Intn(99),
			RejectReasons:   randIntMap(rng),
			RevenueTotalEUR: randFloat(rng), PenaltyTotalEUR: randFloat(rng), NetRevenueEUR: randFloat(rng),
			ViolationEpochs: rng.Intn(99), Reconfigurations: rng.Intn(99), Epochs: rng.Intn(99),
		},
	}
}

func randKbps(rng *rand.Rand) slice.Kbps { return slice.Kbps(rng.Int63() - rng.Int63()) }

func randCheckpoint(rng *rand.Rand) *checkpointState {
	st := &checkpointState{
		EventNext:  rng.Int63(),
		Epochs:     rng.Int63n(1 << 30),
		SeqCounter: rng.Int63n(1 << 30),
		PLMN: slice.PLMNState{
			Next: rng.Intn(64),
			Free: randSlice(rng, randPLMN),
			InUse: randSlice(rng, func(rng *rand.Rand) slice.PLMNAssignment {
				return slice.PLMNAssignment{PLMN: randPLMN(rng), Owner: slice.ID(randString(rng))}
			}),
		},
		Counters: counterState{
			Admitted: rng.Int63(), Rejected: rng.Int63(), Violations: rng.Int63(), Reconfigurations: rng.Int63(),
			Active: rng.Int63(), Revenue: slice.MicroEUR(rng.Int63()), Penalty: slice.MicroEUR(-rng.Int63()),
			Contracted: randKbps(rng), Allocated: randKbps(rng), RejectReasons: randIntMap(rng),
		},
		History: randSlice(rng, func(rng *rand.Rand) slice.ID { return slice.ID(randString(rng)) }),
		Links: randSlice(rng, func(rng *rand.Rand) linkState {
			return linkState{From: randString(rng), To: randString(rng), Up: rng.Intn(2) == 0, CapacityMbps: randFloat(rng)}
		}),
		Slices: randSlice(rng, func(rng *rand.Rand) persistedSlice {
			ps := persistedSlice{
				Slice: randPersisted(rng), LedgerKbps: randKbps(rng), Paths: randSlice(rng, randPath),
				MECHost: randString(rng), MECCPU: randFloat(rng), ActivateAt: randTime(rng),
				LastDemand: randFloat(rng), HaveDemand: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				ps.Timeline = &InstallTimeline{Submitted: randTime(rng), RadioDone: randTime(rng),
					PathsDone: randTime(rng), StackDone: randTime(rng), Active: randTime(rng)}
			}
			return ps
		}),
	}
	if rng.Intn(2) == 0 {
		snap := randEpochSnapshot(rng)
		st.LastEpoch = &snap
	}
	return st
}

// randRecord draws one value of each durable type in turn: the nine log
// records — each with the events it is logged with — then the checkpoint
// blob.
func randRecord(rng *rand.Rand, i int) record {
	id := slice.ID(randString(rng))
	var rec record
	switch i % 10 {
	case 0:
		rec = &admitRecord{Slice: randPersisted(rng), ReservedKbps: randKbps(rng), Paths: randSlice(rng, randPath),
			MECHost: randString(rng), MECCPU: randFloat(rng), SubmittedAt: randTime(rng), ActivateAt: randTime(rng)}
	case 1:
		rec = &rejectRecord{Slice: randPersisted(rng)}
	case 2:
		rec = &activateRecord{Slice: id, At: randTime(rng)}
	case 3:
		rec = &teardownRecord{Slice: id, Reason: randString(rng)}
	case 4:
		rec = &resizeRecord{Slice: id, Mbps: randFloat(rng), PRBs: randIntMap(rng), MECMbps: randFloat(rng),
			ResizePaths: rng.Intn(2) == 0}
	case 5:
		rec = &rerouteRecord{Slice: id, Paths: randSlice(rng, randPath), WorstDelayMs: randFloat(rng)}
	case 6:
		rec = &epochRecord{Epoch: rng.Int63(), At: randTime(rng), RANUtil: randFloat(rng), Snapshot: randEpochSnapshot(rng),
			Items: randSlice(rng, func(rng *rand.Rand) epochItemRecord {
				return epochItemRecord{Slice: slice.ID(randString(rng)), Demand: randFloat(rng), Served: randFloat(rng),
					Counted: rng.Intn(2) == 0, Charged: rng.Intn(2) == 0, LedgerUpdated: rng.Intn(2) == 0, LedgerTo: randKbps(rng)}
			})}
	case 7:
		rec = &linkRecord{Kind: randString(rng), From: randString(rng), To: randString(rng), CapacityMbps: randFloat(rng)}
	case 8:
		rec = &shutdownRecord{At: randTime(rng)}
	default:
		return randCheckpoint(rng)
	}
	return &logPayload{rec, randSlice(rng, randEvent)}
}

// emptyLike returns a zero value of x's type to decode into.
func emptyLike(x record) record {
	if p, ok := x.(*logPayload); ok {
		return &logPayload{rec: emptyLike(p.rec)}
	}
	return reflect.New(reflect.TypeOf(x).Elem()).Interface().(record)
}

// checkRoundTrip is the codec's contract on one value: it decodes to a deep
// copy of itself (nil stays nil, empty stays empty, absent pointers stay
// absent), and encoding is a function of the value — a second encode, and
// an encode of the decoded copy, give the same bytes whatever order the maps
// were filled or ranged in.
func checkRoundTrip(t *testing.T, x record) []byte {
	t.Helper()
	b := encodeRecord(x)
	y := emptyLike(x)
	if err := decodeRecord(b, y); err != nil {
		t.Fatalf("decode %T: %v\nvalue %+v", x, err, x)
	}
	if !reflect.DeepEqual(x, y) {
		t.Fatalf("%T did not round-trip\n in: %+v\nout: %+v", x, x, y)
	}
	if again := encodeRecord(x); !bytes.Equal(again, b) {
		t.Fatalf("%T: two encodes of one value differ", x)
	}
	if back := encodeRecord(y); !bytes.Equal(back, b) {
		t.Fatalf("%T: the decoded copy encodes differently", x)
	}
	return b
}

func TestRecordCodecRoundTrip(t *testing.T) {
	t.Run("strings", func(t *testing.T) {
		for _, s := range nastyStrings {
			checkRoundTrip(t, &logPayload{&teardownRecord{Slice: slice.ID(s), Reason: s}, []Event{{Detail: s}}})
		}
	})
	t.Run("floats", func(t *testing.T) {
		for _, f := range nastyFloats {
			in := &resizeRecord{Mbps: f, MECMbps: -f}
			var out resizeRecord
			if err := decodeRecord(encodeRecord(in), &out); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(out.Mbps) != math.Float64bits(f) || math.Float64bits(out.MECMbps) != math.Float64bits(-f) {
				t.Errorf("%x came back as %x", math.Float64bits(f), math.Float64bits(out.Mbps))
			}
		}
	})
	t.Run("times", func(t *testing.T) {
		for _, tm := range nastyTimes {
			checkRoundTrip(t, &logPayload{&activateRecord{At: tm}, []Event{{Time: tm}}})
		}
		// A wall-clock reading (local zone, monotonic part) comes back as the
		// same instant printing the same RFC 3339 text.
		now := time.Now().In(time.FixedZone("CEST", 7200))
		var out shutdownRecord
		if err := decodeRecord(encodeRecord(&shutdownRecord{At: now}), &out); err != nil {
			t.Fatal(err)
		}
		if !out.At.Equal(now) || out.At.Format(time.RFC3339Nano) != now.Format(time.RFC3339Nano) {
			t.Errorf("%s came back as %s", now.Format(time.RFC3339Nano), out.At.Format(time.RFC3339Nano))
		}
	})
	t.Run("zero_values", func(t *testing.T) {
		for i := 0; i < 10; i++ {
			checkRoundTrip(t, emptyLike(randRecord(rand.New(rand.NewSource(1)), i)))
		}
	})
	t.Run("map_order", func(t *testing.T) {
		up, down := map[string]int{}, map[string]int{}
		for i := 0; i < 64; i++ {
			up[fmt.Sprint("enb-", i)] = i
			down[fmt.Sprint("enb-", 63-i)] = 63 - i
		}
		if !bytes.Equal(encodeRecord(&resizeRecord{PRBs: up}), encodeRecord(&resizeRecord{PRBs: down})) {
			t.Error("equal maps filled in different orders encode differently")
		}
	})
	t.Run("randomized", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9)) // deterministic: failures must reproduce
		for i := 0; i < 3000; i++ {
			checkRoundTrip(t, randRecord(rng, i))
		}
	})
}

// refuses asserts that payload does not decode as a typ record (or, for
// typ "", as a checkpoint blob) and that the error is the format error.
func refuses(t *testing.T, what, typ string, payload []byte) {
	t.Helper()
	var err error
	if typ == "" {
		err = decodeRecord(payload, new(checkpointState))
	} else {
		_, _, err = decodeLogRecord(wal.Record{Type: typ, Payload: payload})
	}
	if !errors.Is(err, errRecordFormat) {
		t.Fatalf("%s of a %q payload (%d bytes): %v, want the format error", what, typ, len(payload), err)
	}
}

// TestRecordCodecStrict: decoding accepts an encoding and nothing near it —
// no strict prefix, no extension, no other version — over real records of
// all nine types, a real checkpoint blob and randomized values of each.
func TestRecordCodecStrict(t *testing.T) {
	type sample struct {
		typ     string
		payload []byte
	}
	var samples []sample
	records, _, _ := allRecordTypesRun(t)
	seen := map[string]bool{}
	for _, r := range records {
		if !seen[r.Type] {
			seen[r.Type] = true
			samples = append(samples, sample{r.Type, r.Payload})
		}
	}
	if len(seen) != 9 {
		t.Fatalf("fixture logged %d record types, want 9", len(seen))
	}
	tags := []string{recAdmit, recReject, recActivate, recTeardown, recResize, recReroute, recEpoch, recLink, recShutdown, ""}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 40; i++ {
		samples = append(samples, sample{tags[i%10], encodeRecord(randRecord(rng, i))})
	}
	for _, s := range samples {
		for n := 0; n < len(s.payload); n++ {
			refuses(t, fmt.Sprintf("prefix %d", n), s.typ, s.payload[:n])
		}
		for _, extra := range []byte{0x00, 0x01, 0xff} {
			refuses(t, "one-byte extension", s.typ, append(s.payload[:len(s.payload):len(s.payload)], extra))
		}
		other := append([]byte(nil), s.payload...)
		other[0] = formatVersion + 1
		refuses(t, "next format version", s.typ, other)
	}

	// A length prefix is checked against the bytes that remain before
	// anything is allocated for it: twelve bytes announcing 2^40 events.
	huge := wal.Encoder([]byte{formatVersion})
	at := time.Unix(0, 0)
	huge.Time(&at)
	n := uint64(1)<<40 + 1 // a nilable prefix carries len+1
	huge.Uvarint(&n)
	payload := append(huge.Bytes(), 0, 0)
	if len(payload) != 12 {
		t.Fatalf("crafted payload is %d bytes, want 12", len(payload))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refuses(t, "2^40-element slice", recShutdown, payload)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("refusing an oversized length allocated %d bytes", grew)
	}
}

// TestRecordCodecLiveStream reads back what a durable orchestrator really
// wrote — log and checkpoint, through the file WAL — and requires every
// payload to be the one encoding of the value it decodes to, and to render
// through RecordJSON.
func TestRecordCodecLiveStream(t *testing.T) {
	dir := t.TempDir()
	s, o, w := durableEnv(t, Config{Overbook: true, Risk: 0.9, PLMNLimit: 32, SnapshotEvery: 1}, dir)
	for i := 0; i < 8; i++ {
		sl, err := o.Submit(req(fmt.Sprintf("tenant-%d", i), 20, 50, time.Hour, 100),
			traffic.NewConstant(12, 0, nil))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if sl.State() == slice.StateRejected {
			t.Fatalf("slice %d rejected: %s", i, sl.Reason())
		}
		if i%2 == 0 {
			if err := o.Delete(sl.ID()); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
		}
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	o.RunEpoch() // an epoch record, resizes, and the checkpoint
	o.Shutdown()
	if err := w.Close(); err != nil {
		t.Fatalf("close wal: %v", err)
	}

	rec, err := wal.Load(dir)
	if err != nil {
		t.Fatalf("load wal: %v", err)
	}
	if rec.Snapshot == nil {
		t.Fatalf("no checkpoint after an epoch with SnapshotEvery 1 (%d tail records)", len(rec.Records))
	}
	var st checkpointState
	if err := decodeRecord(rec.Snapshot, &st); err != nil {
		t.Fatalf("checkpoint blob: %v", err)
	}
	if !bytes.Equal(encodeRecord(&st), rec.Snapshot) {
		t.Error("the checkpoint blob is not the encoding of what it decodes to")
	}
	// The whole log, not just the tail past the anchor: every sealed
	// segment oldest first, then wal.log.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	last := func(name string) (n uint64) {
		fmt.Sscanf(filepath.Base(name), "wal-%d.log", &n)
		return n
	}
	sort.Slice(segs, func(i, j int) bool { return last(segs[i]) < last(segs[j]) })
	var all []wal.Record
	for _, name := range append(segs, filepath.Join(dir, "wal.log")) {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, torn, err := wal.DecodeStream(raw)
		if err != nil || torn {
			t.Fatalf("%s: torn %v, %v", filepath.Base(name), torn, err)
		}
		if len(all) > 0 && len(recs) > 0 && recs[0].Seq != all[len(all)-1].Seq+1 {
			t.Fatalf("%s starts at %d after %d", filepath.Base(name), recs[0].Seq, all[len(all)-1].Seq)
		}
		all = append(all, recs...)
	}
	t.Logf("%d segments, %d records", len(segs), len(all))
	types := map[string]bool{}
	for _, r := range all {
		types[r.Type] = true
		v, events, err := decodeLogRecord(r)
		if err != nil {
			t.Fatalf("record %d (%s): %v", r.Seq, r.Type, err)
		}
		if !bytes.Equal(encodeRecord(&logPayload{v, events}), r.Payload) {
			t.Errorf("record %d (%s) is not the encoding of what it decodes to", r.Seq, r.Type)
		}
		if js, err := RecordJSON(r); err != nil || !strings.HasPrefix(string(js), "{") {
			t.Errorf("record %d (%s) as JSON: %q, %v", r.Seq, r.Type, js, err)
		}
	}
	for _, typ := range []string{recAdmit, recActivate, recTeardown, recResize, recEpoch, recShutdown} {
		if !types[typ] {
			t.Errorf("the live log holds no %s record", typ)
		}
	}
}

// layoutPins maps a format version to the fingerprint of the walked types'
// layout it was cut for.
var layoutPins = map[byte]string{
	1: "075341486a956ae2",
}

// describeLayout writes a type's durable shape: kinds, and for structs the
// exported field names and their shapes in declaration order.
func describeLayout(b *strings.Builder, t reflect.Type) {
	switch {
	case t == reflect.TypeOf(time.Time{}):
		b.WriteString("time")
	case t.Kind() == reflect.Struct:
		b.WriteString(t.Name() + "{")
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				b.WriteString(f.Name + ":")
				describeLayout(b, f.Type)
				b.WriteString(";")
			}
		}
		b.WriteString("}")
	case t.Kind() == reflect.Pointer, t.Kind() == reflect.Slice:
		b.WriteString(t.Kind().String() + " ")
		describeLayout(b, t.Elem())
	case t.Kind() == reflect.Map:
		b.WriteString("map ")
		describeLayout(b, t.Key())
		b.WriteString(" ")
		describeLayout(b, t.Elem())
	default:
		b.WriteString(t.Kind().String())
	}
}

// TestRecordLayoutPinned fails when a struct the walkers cover gains, loses,
// reorders or retypes a field while formatVersion stays put: such a change
// alters what the bytes mean, and the version byte is how an old log is
// told apart from a new one.
func TestRecordLayoutPinned(t *testing.T) {
	roots := []reflect.Type{reflect.TypeOf(Event{}), reflect.TypeOf(checkpointState{})}
	tags := make([]string, 0, len(logRecordTypes))
	for tag := range logRecordTypes {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		roots = append(roots, reflect.TypeOf(logRecordTypes[tag]()).Elem())
	}
	var b strings.Builder
	for _, root := range roots {
		describeLayout(&b, root)
		b.WriteString("\n")
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
	if want := layoutPins[formatVersion]; got != want {
		t.Fatalf("the layout of the logged types is %s, but format version %d is pinned to %q.\n"+
			"If a record struct changed: bump formatVersion in records.go, update its walker and DESIGN §9.1, "+
			"and pin the new version to %s here.", got, formatVersion, want, got)
	}
}
