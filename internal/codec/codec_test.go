package codec

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// codecSample exercises every kind the snapshot codec supports, with
// nil and empty containers side by side.
type codecSample struct {
	B        bool
	I8       int8
	I        int
	U        uint64
	F        float64
	S        string
	Arr      [3]int16
	Line     [4]byte
	Raw      []byte
	RawEmpty []byte
	RawNil   []byte
	Ints     []int
	Empty    []int
	Nil      []int
	Nested   [][]string
	M        map[string]uint32
	MEmpty   map[int]bool
	MNil     map[uint8]int
	P        *codecInner
	PNil     *int
	unexp    int
}

type codecInner struct {
	F   float64
	Nil []int
}

func sampleValue() *codecSample {
	return &codecSample{
		B: true, I8: -128, I: -1 << 40, U: math.MaxUint64, F: math.Copysign(0, -1), S: "héllo",
		Arr: [3]int16{-1, 0, 32767}, Line: [4]byte{1, 2, 3, 255},
		Raw: []byte("abc"), RawEmpty: []byte{}, Ints: []int{3, -2, 1}, Empty: []int{},
		Nested: [][]string{nil, {}, {"x", ""}},
		M:      map[string]uint32{"b": 2, "a": 1, "": 0},
		MEmpty: map[int]bool{},
		P:      &codecInner{F: math.NaN()},
		unexp:  7,
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	in := sampleValue()
	b, err := Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var out codecSample
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	in.unexp = 0 // unexported fields are not encoded
	nan := out.P.F
	out.P.F, in.P.F = 0, 0
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("round trip changed the value:\n got %#v\nwant %#v", out, *in)
	}
	if math.Float64bits(nan) != math.Float64bits(math.NaN()) {
		t.Fatalf("NaN bits %#x not preserved", math.Float64bits(nan))
	}
	if out.RawEmpty == nil || out.Empty == nil || out.MEmpty == nil || out.Nested[1] == nil {
		t.Fatal("empty containers decoded as nil")
	}
	if out.RawNil != nil || out.Nil != nil || out.MNil != nil || out.Nested[0] != nil || out.PNil != nil {
		t.Fatal("nil containers decoded as non-nil")
	}
	out.P.F = nan
	again, err := Append(nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, b) {
		t.Fatal("re-encoding the decoded value changed the bytes")
	}
}

func TestSnapshotCodecRefusesUnsupportedTypes(t *testing.T) {
	type withIface struct{ X any }
	type withChan struct{ C chan int }
	type withFunc struct{ F func() }
	type withFloat32 struct{ F float32 }
	type emptyElems struct{ E []struct{} }
	type floatKeys struct{ M map[float64]int }
	for name, enc := range map[string]func() error{
		"interface": func() error { _, err := Append(nil, &withIface{X: 1}); return err },
		"chan":      func() error { _, err := Append(nil, &withChan{}); return err },
		"func":      func() error { _, err := Append(nil, &withFunc{}); return err },
		"float32":   func() error { _, err := Append(nil, &withFloat32{}); return err },
		"zero-size": func() error { _, err := Append(nil, &emptyElems{}); return err },
		"float key": func() error { _, err := Append(nil, &floatKeys{}); return err },
	} {
		if err := enc(); err == nil || !strings.Contains(err.Error(), "snapshot codec") {
			t.Errorf("%s: encode error = %v, want a snapshot codec refusal", name, err)
		}
	}
	// A refused type must stay refused: nothing half-built is cached.
	if _, err := Append(nil, &withIface{}); err == nil {
		t.Error("interface field accepted on the second try")
	}
}

func TestSnapshotCodecStrictDecode(t *testing.T) {
	type small struct {
		B bool
		N int8
		M map[uint8]bool
		P *uint8
		S []uint16
	}
	good, err := Append(nil, &small{B: true, N: 1, M: map[uint8]bool{1: true, 2: false}, P: new(uint8), S: []uint16{7}})
	if err != nil {
		t.Fatal(err)
	}
	// good is: 01 | 02 | 03 01 01 02 00 | 01 00 | 02 07
	var v small
	if err := Decode(good, &v); err != nil {
		t.Fatalf("valid input refused: %v", err)
	}
	for name, in := range map[string][]byte{
		"empty":               {},
		"truncated":           good[:len(good)-1],
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"bool 2":              {2, 2, 0, 0, 0},
		"non-minimal varint":  {1, 0x82, 0x00, 0, 0, 0},
		"int8 overflow":       {1, 0x80, 0x02, 0, 0, 0},
		"map keys unordered":  {1, 2, 3, 2, 1, 1, 0, 0, 0},
		"map keys duplicated": {1, 2, 3, 1, 1, 1, 0, 0, 0},
		"pointer marker 2":    {1, 2, 0, 2, 0},
		"slice too long":      {1, 2, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"varint overflow":     {1, 2, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		var v small
		if err := Decode(in, &v); err == nil {
			t.Errorf("%s: % x accepted as %+v", name, in, v)
		}
	}
}
