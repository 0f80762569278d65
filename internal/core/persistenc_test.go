package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/slice"
	"repro/internal/traffic"
	"repro/internal/wal"
)

// nastyStrings exercises every escaping branch of appendJSONString:
// HTML-escaped bytes, control characters, quotes and backslashes,
// invalid UTF-8, U+2028/U+2029, and multi-byte runes.
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

var nastyFloats = []float64{
	0, 1, -1, 0.1, -0.1, 123.456, 1e-6, 9.9e-7, 1e-7, 1e20, 1e21, 2.5e22,
	-1e300, 3.14159265358979, 1.0000000000000002, 42,
}

var nastyTimes = []time.Time{
	{}, // zero time: omitempty on a struct never fires, so it must serialize
	time.Date(2026, 8, 8, 12, 30, 45, 0, time.UTC),
	time.Date(2026, 8, 8, 12, 30, 45, 123456789, time.UTC),
	time.Date(2026, 8, 8, 12, 30, 45, 120000000, time.FixedZone("CET", 3600)),
	time.Date(1999, 1, 1, 0, 0, 0, 1, time.UTC),
}

func randString(rng *rand.Rand) string {
	return nastyStrings[rng.Intn(len(nastyStrings))]
}

func randFloat(rng *rand.Rand) float64 {
	return nastyFloats[rng.Intn(len(nastyFloats))]
}

func randTime(rng *rand.Rand) time.Time {
	return nastyTimes[rng.Intn(len(nastyTimes))]
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

func randEvents(rng *rand.Rand) []Event {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []Event{}
	default:
		evs := make([]Event, rng.Intn(4)+1)
		for i := range evs {
			evs[i] = randEvent(rng)
		}
		return evs
	}
}

func randAllocation(rng *rand.Rand) slice.Allocation {
	a := slice.Allocation{
		AllocatedMbps: randFloat(rng),
		PathLatencyMs: randFloat(rng),
		DataCenter:    randString(rng),
		StackID:       randString(rng),
		EPCID:         randString(rng),
		MECAppID:      randString(rng),
		PLMN:          slice.PLMN{MCC: randString(rng), MNC: randString(rng)},
	}
	switch rng.Intn(3) {
	case 0: // nil map / nil slice → null
	case 1:
		a.PRBs = map[string]int{}
		a.PathIDs = []string{}
	default:
		a.PRBs = map[string]int{"enb-0": rng.Intn(100), "enb-1": -3, "a": 0, "zz": 7}
		a.PathIDs = []string{randString(rng), randString(rng)}
	}
	return a
}

func randPersisted(rng *rand.Rand) slice.Persisted {
	p := slice.Persisted{
		ID: slice.ID(randString(rng)),
		Request: slice.Request{
			Tenant: randString(rng),
			SLA: slice.SLA{
				ThroughputMbps: randFloat(rng),
				MaxLatencyMs:   randFloat(rng),
				Duration:       time.Duration(rng.Int63n(int64(2 * time.Hour))),
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

		Allocation: randAllocation(rng),
	}
	if rng.Intn(2) == 0 {
		p.Cause = &slice.RejectionCause{
			Code:   slice.RejectCode(randString(rng)),
			Domain: randString(rng),
			Detail: randString(rng),
		}
	}
	if rng.Intn(2) == 0 {
		p.ViolationEpochs = rng.Intn(3)
		p.ServedEpochs = rng.Intn(3)
		p.PenaltyEUR = randFloat(rng)
		p.DemandMbps = randFloat(rng)
		p.ServedMbps = randFloat(rng)
	}
	return p
}

func randAdmitRecord(rng *rand.Rand) admitRecord {
	r := admitRecord{
		Slice:        randPersisted(rng),
		ReservedKbps: slice.Kbps(rng.Int63() - rng.Int63()),
		MECHost:      randString(rng),
		MECCPU:       randFloat(rng),
		SubmittedAt:  randTime(rng),
		ActivateAt:   randTime(rng),
		Events:       randEvents(rng),
	}
	switch rng.Intn(3) {
	case 0: // nil → omitted
	case 1:
		r.Paths = []pathRecord{} // empty → also omitted by omitempty
	default:
		r.Paths = make([]pathRecord, rng.Intn(3)+1)
		for i := range r.Paths {
			r.Paths[i] = pathRecord{
				ID:      randString(rng),
				Hops:    []string{randString(rng), randString(rng)},
				Mbps:    randFloat(rng),
				DelayMs: randFloat(rng),
			}
			if rng.Intn(3) == 0 {
				r.Paths[i].Hops = nil
			}
		}
	}
	return r
}

// TestFastRecordEncodersMatchEncodingJSON pins the hand-rolled hot-path
// encoders byte-for-byte to encoding/json across adversarial strings,
// floats, times, and nil/empty/populated container shapes. The WAL format
// is the json.Marshal output; this test is what lets marshalRecord swap
// encoders without a format migration.
func TestFastRecordEncodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) // deterministic: failures must reproduce

	check := func(t *testing.T, payload any) {
		t.Helper()
		want, err := json.Marshal(payload)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		got, err := marshalRecord(payload)
		if err != nil {
			t.Fatalf("marshalRecord: %v", err)
		}
		if string(got) != string(want) {
			t.Fatalf("encoder mismatch for %#v\n got: %s\nwant: %s", payload, got, want)
		}
	}

	t.Run("strings", func(t *testing.T) {
		for _, s := range nastyStrings {
			check(t, teardownRecord{Slice: slice.ID(s), Reason: s})
		}
	})
	t.Run("floats", func(t *testing.T) {
		for _, f := range nastyFloats {
			r := admitRecord{ReservedKbps: slice.ToKbps(f), MECCPU: f}
			r.Slice.Allocation.AllocatedMbps = f
			r.Slice.Request.SLA.PriceEUR = f
			check(t, r)
		}
	})
	t.Run("times", func(t *testing.T) {
		for _, tm := range nastyTimes {
			r := admitRecord{SubmittedAt: tm, ActivateAt: tm}
			r.Slice.Created = tm
			r.Slice.Starts = tm
			r.Slice.Request.Arrival = tm
			check(t, r)
			check(t, teardownRecord{Events: []Event{{Time: tm}}})
		}
	})
	t.Run("zero_values", func(t *testing.T) {
		check(t, admitRecord{})
		check(t, teardownRecord{})
	})
	t.Run("randomized", func(t *testing.T) {
		for i := 0; i < 2000; i++ {
			check(t, randAdmitRecord(rng))
			check(t, teardownRecord{
				Slice:  slice.ID(randString(rng)),
				Reason: randString(rng),
				Events: randEvents(rng),
			})
		}
	})
}

// TestFastRecordEncoderLiveStream re-encodes every record a live durable
// orchestrator wrote and asserts each admit/teardown payload round-trips
// through the fast encoder identically — the integration-level version of
// the unit equivalence test above.
func TestFastRecordEncoderLiveStream(t *testing.T) {
	dir := t.TempDir()
	_, o, w := durableEnv(t, Config{Overbook: true, Risk: 0.9, PLMNLimit: 32}, dir)
	for i := 0; i < 8; i++ {
		s, err := o.Submit(req(fmt.Sprintf("tenant-%d", i), 20, 50, time.Hour, 100),
			traffic.NewConstant(12, 0, nil))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if s.State() == slice.StateRejected {
			t.Fatalf("slice %d rejected: %s", i, s.Reason())
		}
		if i%2 == 0 {
			if err := o.Delete(s.ID()); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
		}
	}
	o.Shutdown()
	if err := w.Close(); err != nil {
		t.Fatalf("close wal: %v", err)
	}

	rec, err := wal.Load(dir)
	if err != nil {
		t.Fatalf("load wal: %v", err)
	}
	checked := 0
	for _, rec := range rec.Records {
		var payload any
		switch rec.Type {
		case recAdmit:
			var r admitRecord
			if err := json.Unmarshal(rec.Payload, &r); err != nil {
				t.Fatalf("decode admit: %v", err)
			}
			payload = r
		case recTeardown:
			var r teardownRecord
			if err := json.Unmarshal(rec.Payload, &r); err != nil {
				t.Fatalf("decode teardown: %v", err)
			}
			payload = r
		default:
			continue
		}
		// The live payload was produced by the fast encoder; json.Marshal of
		// the decoded image must reproduce it (omitempty boundaries included).
		want, err := json.Marshal(payload)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		got, err := marshalRecord(payload)
		if err != nil {
			t.Fatalf("marshalRecord: %v", err)
		}
		if string(got) != string(want) || string(got) != string(rec.Payload) {
			t.Fatalf("live record seq %d diverged\n  wal: %s\n fast: %s\n json: %s",
				rec.Seq, rec.Payload, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no admit/teardown records found in live WAL")
	}
}
