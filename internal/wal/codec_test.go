package wal

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// everything holds one field per codec primitive.
type everything struct {
	U     uint64
	I     int64
	Small int8
	F     float64
	B     bool
	S     string
	T     time.Time
	L     []string
	P     *string
	M     map[string]int
}

func walkEverything(c *Codec, e *everything) {
	c.Uvarint(&e.U)
	Int(c, &e.I)
	Int(c, &e.Small)
	c.Float64(&e.F)
	c.Bool(&e.B)
	Str(c, &e.S)
	c.Time(&e.T)
	Slice(c, &e.L, Str[string])
	Ptr(c, &e.P, Str[string])
	c.IntMap(&e.M)
}

func decodeEverything(b []byte) (everything, error) {
	var e everything
	c := Decoder(b)
	walkEverything(c, &e)
	return e, c.Finish()
}

func TestCodecRoundTripAndStrictness(t *testing.T) {
	p := "pointee"
	for name, in := range map[string]everything{
		"zero":  {},
		"empty": {L: []string{}, M: map[string]int{}},
		"full": {U: math.MaxUint64, I: math.MinInt64, Small: -128, F: math.Copysign(0, -1), B: true, S: "a\x00\xffb",
			T: time.Date(2026, 9, 29, 1, 2, 3, 4, time.FixedZone("", -3600)), L: []string{"", "x"}, P: &p,
			M: map[string]int{"b": 2, "a": -1, "": 0}},
	} {
		c := Encoder(nil)
		walkEverything(c, &in)
		b := c.Bytes()
		out, err := decodeEverything(b)
		if err != nil || !reflect.DeepEqual(in, out) {
			t.Fatalf("%s: round trip gave %+v, %v", name, out, err)
		}
		for n := 0; n < len(b); n++ {
			if _, err := decodeEverything(b[:n]); err == nil {
				t.Errorf("%s: the %d-byte prefix of %d bytes decoded", name, n, len(b))
			}
		}
		if _, err := decodeEverything(append(b[:len(b):len(b)], 0)); err == nil {
			t.Errorf("%s: a one-byte extension decoded", name)
		}
	}
}

func TestCodecRefusals(t *testing.T) {
	enc := func(walk func(c *Codec)) []byte {
		c := Encoder(nil)
		walk(c)
		return c.Bytes()
	}
	for _, tc := range []struct {
		name, want string
		payload    []byte
		walk       func(c *Codec)
	}{
		{"bool 2", "bool 2", []byte{2}, func(c *Codec) { var b bool; c.Bool(&b) }},
		{"int8 300", "overflows", enc(func(c *Codec) { v := 300; Int(c, &v) }), func(c *Codec) { var v int8; Int(c, &v) }},
		{"string longer than input", "exceeds", []byte{5, 'a', 'b'}, func(c *Codec) { var s string; Str(c, &s) }},
		{"2^40 elements", "exceeds", enc(func(c *Codec) { n := uint64(1)<<40 + 1; c.Uvarint(&n) }),
			func(c *Codec) { var l []string; Slice(c, &l, Str[string]) }},
		{"map keys descending", "map key", enc(func(c *Codec) {
			n, v := uint64(3), 0
			c.Uvarint(&n)
			for _, k := range []string{"b", "a"} {
				Str(c, &k)
				Int(c, &v)
			}
		}), func(c *Codec) { var m map[string]int; c.IntMap(&m) }},
		{"1e9 nanoseconds", "nanoseconds", enc(func(c *Codec) {
			sec, nsec, off := int64(0), uint64(1e9), 0
			Int(c, &sec)
			c.Uvarint(&nsec)
			Int(c, &off)
		}), func(c *Codec) { var tm time.Time; c.Time(&tm) }},
	} {
		c := Decoder(tc.payload)
		tc.walk(c)
		if err := c.Finish(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
