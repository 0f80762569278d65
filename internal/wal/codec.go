package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"
)

// Codec is the payload codec's one moving part (DESIGN §9.1): a cursor that
// walks a value's fields in a fixed order and either appends each field's
// encoding to a buffer or consumes it from one. A record type lists its
// fields once, in a walker — func(c *Codec, v *T) calling one primitive per
// field — and that one function both encodes and decodes, so the two
// directions cannot drift apart. The primitives know nothing about the types
// they carry; schemas (internal/core's record types) live with their owners.
//
// Decoding is strict: a length prefix larger than the bytes that remain, a
// bool other than 0/1, unsorted map keys or input left over after the walk
// (Finish) is an error. The first error latches and
// empties the input, so every later primitive fails cheaply; the walked value
// is then unspecified and must be discarded. Encoding only reads the walked
// value, so a walker may be pointed at data other goroutines are reading.
type Codec struct {
	buf      []byte // encoding: the output so far; decoding: the unread input
	decoding bool
	err      error
}

// Encoder returns a Codec that appends to buf — whatever it already holds (a
// format-version byte, say) stays in front.
func Encoder(buf []byte) *Codec { return &Codec{buf: buf} }

// Decoder returns a Codec that consumes b. Decoded strings are copies; b is
// not retained.
func Decoder(b []byte) *Codec { return &Codec{buf: b, decoding: true} }

// Bytes returns the encoding so far.
func (c *Codec) Bytes() []byte { return c.buf }

// Finish ends a decode: it reports the latched error, or the bytes the walk
// left unread.
func (c *Codec) Finish() error {
	if c.err == nil && c.decoding && len(c.buf) > 0 {
		c.fail("%d bytes after the value", len(c.buf))
	}
	return c.err
}

func (c *Codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	c.buf = nil
}

// Uvarint walks an unsigned integer as a base-128 varint.
func (c *Codec) Uvarint(v *uint64) {
	if !c.decoding {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	x, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail("truncated or oversized varint")
		return
	}
	*v, c.buf = x, c.buf[n:]
}

// Int walks a signed integer of any width as a zig-zag varint.
func Int[T ~int | ~int8 | ~int16 | ~int32 | ~int64](c *Codec, v *T) {
	u := uint64(int64(*v)<<1) ^ uint64(int64(*v)>>63)
	c.Uvarint(&u)
	if x := int64(u>>1) ^ -int64(u&1); c.decoding {
		if *v = T(x); int64(*v) != x {
			c.fail("integer %d overflows its field", x)
		}
	}
}

// Float64 walks a float as its eight IEEE 754 bytes, little-endian: every
// value (-0, denormals, NaN payloads) round-trips bit for bit.
func (c *Codec) Float64(v *float64) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
		return
	}
	if len(c.buf) < 8 {
		c.fail("truncated float")
		return
	}
	*v, c.buf = math.Float64frombits(binary.LittleEndian.Uint64(c.buf)), c.buf[8:]
}

// Bool walks a 0 or a 1.
func (c *Codec) Bool(v *bool) {
	var u uint64
	if *v {
		u = 1
	}
	c.Uvarint(&u)
	if c.decoding {
		if *v = u == 1; u > 1 {
			c.fail("bool %d", u)
		}
	}
}

// length walks a length prefix. Every counted unit (a string's byte, a
// slice's element) occupies at least one byte, so a decoded length beyond
// what remains is refused before anything is allocated for it. With bias 1
// the prefix is 0 for nil — passed and returned as -1 — and n+1 for n units,
// so nil and empty slices round-trip distinctly.
func (c *Codec) length(n, bias int) int {
	u := uint64(n + bias)
	c.Uvarint(&u)
	if !c.decoding {
		return n
	}
	if c.err == nil && u > uint64(len(c.buf)+bias) {
		c.fail("length prefix %d exceeds the %d bytes that remain", u, len(c.buf))
	}
	if c.err != nil {
		return -bias
	}
	return int(u) - bias
}

// Str walks a length-prefixed string; the bytes are carried verbatim
// (invalid UTF-8 included).
func Str[T ~string](c *Codec, v *T) {
	n := c.length(len(*v), 0)
	if !c.decoding {
		c.buf = append(c.buf, *v...)
		return
	}
	*v, c.buf = T(c.buf[:n]), c.buf[n:]
}

// Time walks an instant and its zone offset (Unix seconds, nanoseconds,
// offset seconds east of UTC) — what RFC 3339 prints. A decoded time is in
// UTC when the offset is zero and in an unnamed fixed zone otherwise; zone
// names and monotonic readings are not carried.
func (c *Codec) Time(t *time.Time) {
	sec, nsec := t.Unix(), uint64(t.Nanosecond())
	_, off := t.Zone()
	Int(c, &sec)
	c.Uvarint(&nsec)
	Int(c, &off)
	if !c.decoding || c.err != nil {
		return
	}
	if nsec >= 1e9 {
		c.fail("time with %d nanoseconds", nsec)
		return
	}
	*t = time.Unix(sec, int64(nsec)).UTC()
	if off != 0 {
		*t = t.In(time.FixedZone("", off))
	}
}

// Slice walks a slice, each element through elem.
func Slice[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	n := -1
	if *s != nil {
		n = len(*s)
	}
	if n = c.length(n, 1); c.decoding {
		if *s = nil; n >= 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Ptr walks an optional value: a presence byte, then the value through elem.
func Ptr[T any](c *Codec, p **T, elem func(*Codec, *T)) {
	present := *p != nil
	c.Bool(&present)
	if c.decoding {
		if *p = nil; present && c.err == nil {
			*p = new(T)
		}
	}
	if *p != nil {
		elem(c, *p)
	}
}

// IntMap walks a string-keyed counter map as its keys in ascending order (a
// Slice, so nil and empty stay distinct) and then their values in that order:
// equal maps encode to equal bytes whatever their insertion order. Decoding
// refuses keys that are not strictly ascending.
func (c *Codec) IntMap(m *map[string]int) {
	var keys []string
	if *m != nil {
		keys = make([]string, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	}
	Slice(c, &keys, Str[string])
	if c.decoding {
		if *m = nil; keys != nil {
			*m = make(map[string]int, len(keys))
		}
	}
	for i, k := range keys {
		v := (*m)[k]
		Int(c, &v)
		if !c.decoding {
			continue
		}
		if i > 0 && k <= keys[i-1] {
			c.fail("map key %q after %q", k, keys[i-1])
		}
		(*m)[k] = v
	}
}
