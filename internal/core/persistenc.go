// Hand-rolled JSON encoders for the write-ahead log's hot record types.
//
// The admission hot path pays two json.Marshal calls per durable operation
// (admit + teardown), and with group commit amortizing the fsync the
// reflection-driven encoder became the single largest CPU item on the
// durable path (DESIGN.md §12). These encoders produce output BYTE-IDENTICAL
// to encoding/json for the exact struct shapes involved — same field order,
// same omitempty decisions, same string escaping (HTML-escaping included),
// same float and time formatting — so the WAL keeps one format, the one
// recover.go's strict encoding/json decoder reads.
// TestFastRecordEncodersMatchEncodingJSON pins the equivalence over
// adversarial values; any struct change that breaks it must update the
// matching encoder here.
//
// Cold record types (epoch, reroute, link, ...) keep using encoding/json:
// they are off the admission path and not worth the maintenance surface.
package core

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/slice"
)

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with its default HTML escaping: <, > and & become \u00XX, control
// characters \n, \r, \t use short escapes and the rest the \u00XX form,
// invalid UTF-8 is replaced with �, and U+2028/U+2029 are escaped for
// JavaScript embedding.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat mirrors encoding/json's float64 encoder: shortest
// representation, 'e' format outside [1e-6, 1e21) with the exponent's
// leading zero stripped. Non-finite values never reach the WAL (SLA
// validation rejects them), matching json.Marshal which would error.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONTime mirrors time.Time.MarshalJSON: a quoted RFC 3339 string
// with nanoseconds and trailing fractional zeros trimmed.
func appendJSONTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

func appendJSONBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

func appendJSONStringSlice(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

func appendEventJSON(dst []byte, ev *Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, ev.Seq, 10)
	dst = append(dst, `,"time":`...)
	dst = appendJSONTime(dst, ev.Time)
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, string(ev.Type))
	if ev.Slice != "" {
		dst = append(dst, `,"slice":`...)
		dst = appendJSONString(dst, string(ev.Slice))
	}
	if ev.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendJSONString(dst, ev.Tenant)
	}
	if ev.State != "" {
		dst = append(dst, `,"state":`...)
		dst = appendJSONString(dst, ev.State)
	}
	if ev.RejectCode != "" {
		dst = append(dst, `,"reject_code":`...)
		dst = appendJSONString(dst, string(ev.RejectCode))
	}
	if ev.Mbps != 0 {
		dst = append(dst, `,"mbps":`...)
		dst = appendJSONFloat(dst, ev.Mbps)
	}
	if ev.Link != "" {
		dst = append(dst, `,"link":`...)
		dst = appendJSONString(dst, ev.Link)
	}
	if ev.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendJSONString(dst, ev.Detail)
	}
	return append(dst, '}')
}

func appendEventsJSON(dst []byte, evs []Event) []byte {
	if evs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range evs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEventJSON(dst, &evs[i])
	}
	return append(dst, ']')
}

func appendPLMNJSON(dst []byte, p slice.PLMN) []byte {
	dst = append(dst, `{"mcc":`...)
	dst = appendJSONString(dst, p.MCC)
	dst = append(dst, `,"mnc":`...)
	dst = appendJSONString(dst, p.MNC)
	return append(dst, '}')
}

// appendAllocationJSON: slice.Allocation has no json tags, so encoding/json
// uses the Go field names in declaration order and omits nothing.
func appendAllocationJSON(dst []byte, a *slice.Allocation) []byte {
	dst = append(dst, `{"AllocatedMbps":`...)
	dst = appendJSONFloat(dst, a.AllocatedMbps)
	dst = append(dst, `,"PRBs":`...)
	if a.PRBs == nil {
		dst = append(dst, "null"...)
	} else {
		keys := make([]string, 0, len(a.PRBs))
		for k := range a.PRBs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(a.PRBs[k]), 10)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"PathIDs":`...)
	dst = appendJSONStringSlice(dst, a.PathIDs)
	dst = append(dst, `,"PathLatencyMs":`...)
	dst = appendJSONFloat(dst, a.PathLatencyMs)
	dst = append(dst, `,"DataCenter":`...)
	dst = appendJSONString(dst, a.DataCenter)
	dst = append(dst, `,"StackID":`...)
	dst = appendJSONString(dst, a.StackID)
	dst = append(dst, `,"EPCID":`...)
	dst = appendJSONString(dst, a.EPCID)
	dst = append(dst, `,"MECAppID":`...)
	dst = appendJSONString(dst, a.MECAppID)
	dst = append(dst, `,"PLMN":`...)
	dst = appendPLMNJSON(dst, a.PLMN)
	return append(dst, '}')
}

// appendRequestJSON: slice.Request / slice.SLA carry no json tags either.
func appendRequestJSON(dst []byte, r *slice.Request) []byte {
	dst = append(dst, `{"Tenant":`...)
	dst = appendJSONString(dst, r.Tenant)
	dst = append(dst, `,"SLA":{"ThroughputMbps":`...)
	dst = appendJSONFloat(dst, r.SLA.ThroughputMbps)
	dst = append(dst, `,"MaxLatencyMs":`...)
	dst = appendJSONFloat(dst, r.SLA.MaxLatencyMs)
	dst = append(dst, `,"Duration":`...)
	dst = strconv.AppendInt(dst, int64(r.SLA.Duration), 10)
	dst = append(dst, `,"PriceEUR":`...)
	dst = appendJSONFloat(dst, r.SLA.PriceEUR)
	dst = append(dst, `,"PenaltyEUR":`...)
	dst = appendJSONFloat(dst, r.SLA.PenaltyEUR)
	dst = append(dst, `,"Class":`...)
	dst = strconv.AppendInt(dst, int64(r.SLA.Class), 10)
	dst = append(dst, `,"EdgeCompute":`...)
	dst = appendJSONBool(dst, r.SLA.EdgeCompute)
	dst = append(dst, `},"Arrival":`...)
	dst = appendJSONTime(dst, r.Arrival)
	return append(dst, '}')
}

func appendCauseJSON(dst []byte, c *slice.RejectionCause) []byte {
	dst = append(dst, `{"code":`...)
	dst = appendJSONString(dst, string(c.Code))
	if c.Domain != "" {
		dst = append(dst, `,"domain":`...)
		dst = appendJSONString(dst, c.Domain)
	}
	dst = append(dst, `,"detail":`...)
	dst = appendJSONString(dst, c.Detail)
	return append(dst, '}')
}

// appendPersistedJSON mirrors the tagged slice.Persisted image. Note that
// Starts/Expires carry omitempty but are time.Time structs, which
// encoding/json never treats as empty — they always serialize, zero or not.
func appendPersistedJSON(dst []byte, p *slice.Persisted) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, string(p.ID))
	dst = append(dst, `,"request":`...)
	dst = appendRequestJSON(dst, &p.Request)
	dst = append(dst, `,"state":`...)
	dst = strconv.AppendInt(dst, int64(p.State), 10)
	if p.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, p.Reason)
	}
	if p.Cause != nil {
		dst = append(dst, `,"cause":`...)
		dst = appendCauseJSON(dst, p.Cause)
	}
	dst = append(dst, `,"created":`...)
	dst = appendJSONTime(dst, p.Created)
	dst = append(dst, `,"starts":`...)
	dst = appendJSONTime(dst, p.Starts)
	dst = append(dst, `,"expires":`...)
	dst = appendJSONTime(dst, p.Expires)
	dst = append(dst, `,"allocation":`...)
	dst = appendAllocationJSON(dst, &p.Allocation)
	if p.ViolationEpochs != 0 {
		dst = append(dst, `,"violation_epochs":`...)
		dst = strconv.AppendInt(dst, int64(p.ViolationEpochs), 10)
	}
	if p.ServedEpochs != 0 {
		dst = append(dst, `,"served_epochs":`...)
		dst = strconv.AppendInt(dst, int64(p.ServedEpochs), 10)
	}
	if p.PenaltyEUR != 0 {
		dst = append(dst, `,"penalty_eur":`...)
		dst = appendJSONFloat(dst, p.PenaltyEUR)
	}
	if p.DemandMbps != 0 {
		dst = append(dst, `,"demand_mbps":`...)
		dst = appendJSONFloat(dst, p.DemandMbps)
	}
	if p.ServedMbps != 0 {
		dst = append(dst, `,"served_mbps":`...)
		dst = appendJSONFloat(dst, p.ServedMbps)
	}
	return append(dst, '}')
}

func appendPathRecordJSON(dst []byte, pr *pathRecord) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, pr.ID)
	dst = append(dst, `,"hops":`...)
	dst = appendJSONStringSlice(dst, pr.Hops)
	dst = append(dst, `,"mbps":`...)
	dst = appendJSONFloat(dst, pr.Mbps)
	dst = append(dst, `,"delay_ms":`...)
	dst = appendJSONFloat(dst, pr.DelayMs)
	return append(dst, '}')
}

func appendAdmitRecordJSON(dst []byte, r *admitRecord) []byte {
	dst = append(dst, `{"slice":`...)
	dst = appendPersistedJSON(dst, &r.Slice)
	dst = append(dst, `,"reserved_kbps":`...)
	dst = strconv.AppendInt(dst, int64(r.ReservedKbps), 10)
	if len(r.Paths) > 0 {
		dst = append(dst, `,"paths":[`...)
		for i := range r.Paths {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendPathRecordJSON(dst, &r.Paths[i])
		}
		dst = append(dst, ']')
	}
	if r.MECHost != "" {
		dst = append(dst, `,"mec_host":`...)
		dst = appendJSONString(dst, r.MECHost)
	}
	if r.MECCPU != 0 {
		dst = append(dst, `,"mec_cpu":`...)
		dst = appendJSONFloat(dst, r.MECCPU)
	}
	dst = append(dst, `,"submitted_at":`...)
	dst = appendJSONTime(dst, r.SubmittedAt)
	dst = append(dst, `,"activate_at":`...)
	dst = appendJSONTime(dst, r.ActivateAt)
	dst = append(dst, `,"events":`...)
	dst = appendEventsJSON(dst, r.Events)
	return append(dst, '}')
}

func appendTeardownRecordJSON(dst []byte, r *teardownRecord) []byte {
	dst = append(dst, `{"slice":`...)
	dst = appendJSONString(dst, string(r.Slice))
	dst = append(dst, `,"reason":`...)
	dst = appendJSONString(dst, r.Reason)
	dst = append(dst, `,"events":`...)
	dst = appendEventsJSON(dst, r.Events)
	return append(dst, '}')
}

// marshalRecord encodes a WAL record payload, routing the admission hot
// path's record types through the hand-rolled encoders and everything else
// through encoding/json.
func marshalRecord(payload any) ([]byte, error) {
	switch p := payload.(type) {
	case admitRecord:
		// A populated admit image runs ~2-3 KB; size the buffer so the
		// common case encodes without a grow-and-copy cycle.
		return appendAdmitRecordJSON(make([]byte, 0, 4096), &p), nil
	case teardownRecord:
		return appendTeardownRecordJSON(make([]byte, 0, 1024), &p), nil
	}
	return json.Marshal(payload)
}
