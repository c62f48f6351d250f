// Package codec is the repository's one serializer: the compact binary
// encoding behind laser's session snapshots (SessionState.Encode and
// DecodeSessionState), which laserd journals. It is
// driven by reflection over exported struct fields, in declaration
// order, so the encoded types need no code of their own and no
// registration. Each type is compiled once into a pair of closures and
// cached.
//
// The wire form carries no type information; both sides must be the
// same build (journal checkpoints pin it with their code version):
//
//	bool            one byte, 0 or 1
//	int kinds       zig-zag varint
//	uint kinds      varint
//	float64         8 bytes, little-endian IEEE 754
//	string          varint length, then the bytes
//	array           its elements; a byte array is copied in bulk
//	slice           varint 0 for nil, else length+1, then the elements
//	                (a byte slice in bulk)
//	pointer         byte 0 for nil, else 1 and the pointee
//	struct          its exported fields in declaration order, except
//	                those tagged `codec:"-"`, which decode as zero
//
// Decoding is strict, so every input it accepts re-encodes to the same
// bytes: varints must be minimal, a bool 0 or 1, a pointer marker 0 or
// 1, integers must fit their field, and no bytes may trail the value.
// Every length is checked against the bytes left before anything is
// allocated, and malformed input is an error, never a panic. Kinds with
// no faithful encoding — maps, interfaces, channels, functions,
// float32, complex, uintptr, unsafe pointers — are compile errors,
// never silently dropped; a field that must stay out of the encoding
// says so with the tag.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// typeCodec is one compiled type. enc appends v's encoding to b; dec
// overwrites the addressable v. minSize is the fewest bytes any value
// of the type encodes to, the bound decode checks lengths against.
type typeCodec struct {
	enc     func(b []byte, v reflect.Value) []byte
	dec     func(d *decoder, v reflect.Value) error
	minSize int
}

var (
	errTruncated = errors.New("truncated input")
	errVarint    = errors.New("malformed varint")
	errMarker    = errors.New("bool or pointer marker is not 0 or 1")
	errRange     = errors.New("integer out of range for its field")
	errLength    = errors.New("length exceeds the remaining input")
)

var (
	codecMu sync.Mutex
	codecs  = make(map[reflect.Type]*typeCodec) // guarded by codecMu
)

// codecFor returns the compiled codec of t.
func codecFor(t reflect.Type) (*typeCodec, error) {
	codecMu.Lock()
	defer codecMu.Unlock()
	return compileType(t)
}

// Append appends the encoding of *ptr to b.
func Append[T any](b []byte, ptr *T) ([]byte, error) {
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		return nil, err
	}
	return c.enc(b, reflect.ValueOf(ptr).Elem()), nil
}

// Decode overwrites *ptr with the value data encodes, which must be
// exactly one value.
func Decode[T any](data []byte, ptr *T) error {
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		return err
	}
	d := &decoder{buf: data}
	if err := c.dec(d, reflect.ValueOf(ptr).Elem()); err != nil {
		return fmt.Errorf("at byte %d: %w", len(data)-len(d.buf), err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return nil
}

// compileType fetches or builds t's codec; the caller holds codecMu.
// The encoded types are not recursive, so neither is this.
func compileType(t reflect.Type) (*typeCodec, error) {
	if c := codecs[t]; c != nil {
		return c, nil
	}
	c, err := buildCodec(t)
	if err != nil {
		return nil, err
	}
	codecs[t] = c
	return c, nil
}

func buildCodec(t reflect.Type) (*typeCodec, error) {
	switch t.Kind() {
	case reflect.Bool:
		return &typeCodec{enc: encBool, dec: decBool, minSize: 1}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &typeCodec{enc: encInt, dec: decInt, minSize: 1}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &typeCodec{enc: encUint, dec: decUint, minSize: 1}, nil
	case reflect.Float64:
		return &typeCodec{enc: encFloat, dec: decFloat, minSize: 8}, nil
	case reflect.String:
		return &typeCodec{enc: encString, dec: decString, minSize: 1}, nil
	case reflect.Array:
		if t.Elem().Kind() == reflect.Uint8 {
			return &typeCodec{enc: encByteArray, dec: decByteArray, minSize: t.Len()}, nil
		}
		return compileArray(t)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return &typeCodec{enc: encBytes, dec: decBytes, minSize: 1}, nil
		}
		return compileSlice(t)
	case reflect.Pointer:
		return compilePointer(t)
	case reflect.Struct:
		return compileStruct(t)
	}
	return nil, fmt.Errorf("snapshot codec: unsupported kind %s (type %s)", t.Kind(), t)
}

// elemCodec compiles the element type of a slice, which must
// encode to at least one byte: a length checked against the bytes left
// then bounds the allocation.
func elemCodec(t, of reflect.Type) (*typeCodec, error) {
	c, err := compileType(t)
	if err != nil {
		return nil, err
	}
	if c.minSize == 0 {
		return nil, fmt.Errorf("snapshot codec: %s in %s encodes to no bytes", t, of)
	}
	return c, nil
}

func compileArray(t reflect.Type) (*typeCodec, error) {
	ec, err := compileType(t.Elem())
	if err != nil {
		return nil, err
	}
	n := t.Len()
	return &typeCodec{
		enc: func(b []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				b = ec.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) error {
			for i := 0; i < n; i++ {
				if err := ec.dec(d, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
		minSize: n * ec.minSize,
	}, nil
}

func compileSlice(t reflect.Type) (*typeCodec, error) {
	ec, err := elemCodec(t.Elem(), t)
	if err != nil {
		return nil, err
	}
	return &typeCodec{
		enc: func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n)+1)
			for i := 0; i < n; i++ {
				b = ec.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) error {
			n, isNil, err := d.length(ec.minSize)
			if err != nil || isNil {
				v.SetZero()
				return err
			}
			v.Set(reflect.MakeSlice(t, n, n))
			for i := 0; i < n; i++ {
				if err := ec.dec(d, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
		minSize: 1,
	}, nil
}

func compilePointer(t reflect.Type) (*typeCodec, error) {
	ec, err := compileType(t.Elem())
	if err != nil {
		return nil, err
	}
	et := t.Elem()
	return &typeCodec{
		enc: func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			return ec.enc(append(b, 1), v.Elem())
		},
		dec: func(d *decoder, v reflect.Value) error {
			set, err := d.marker()
			if err != nil || !set {
				v.SetZero()
				return err
			}
			p := reflect.New(et)
			v.Set(p)
			return ec.dec(d, p.Elem())
		},
		minSize: 1,
	}, nil
}

func compileStruct(t reflect.Type) (*typeCodec, error) {
	type field struct {
		index int
		c     *typeCodec
	}
	var fields []field
	var skipped []int
	size := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Tag.Get("codec") == "-" {
			skipped = append(skipped, i)
			continue
		}
		c, err := compileType(f.Type)
		if err != nil {
			return nil, fmt.Errorf("%w (field %s.%s)", err, t, f.Name)
		}
		fields = append(fields, field{i, c})
		size += c.minSize
	}
	return &typeCodec{
		enc: func(b []byte, v reflect.Value) []byte {
			for _, f := range fields {
				b = f.c.enc(b, v.Field(f.index))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) error {
			for _, i := range skipped {
				v.Field(i).SetZero()
			}
			for _, f := range fields {
				if err := f.c.dec(d, v.Field(f.index)); err != nil {
					return err
				}
			}
			return nil
		},
		minSize: size,
	}, nil
}

func encBool(b []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(b, 1)
	}
	return append(b, 0)
}

func encInt(b []byte, v reflect.Value) []byte  { return binary.AppendVarint(b, v.Int()) }
func encUint(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }

func encFloat(b []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
}

func encString(b []byte, v reflect.Value) []byte {
	s := v.String()
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func encByteArray(b []byte, v reflect.Value) []byte { return append(b, v.Bytes()...) }

func encBytes(b []byte, v reflect.Value) []byte {
	if v.IsNil() {
		return append(b, 0)
	}
	p := v.Bytes()
	return append(binary.AppendUvarint(b, uint64(len(p))+1), p...)
}

// decoder consumes an encoding front to back.
type decoder struct {
	buf []byte
}

// uvarint reads a minimal varint. Encoding never emits a trailing zero
// byte, so a longer form of the same value would not re-encode.
func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf)
	if n <= 0 || n > 1 && d.buf[n-1] == 0 {
		return 0, errVarint
	}
	d.buf = d.buf[n:]
	return x, nil
}

func (d *decoder) varint() (int64, error) {
	u, err := d.uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

// marker reads a bool or pointer-presence byte.
func (d *decoder) marker() (bool, error) {
	if len(d.buf) == 0 {
		return false, errTruncated
	}
	m := d.buf[0]
	if m > 1 {
		return false, errMarker
	}
	d.buf = d.buf[1:]
	return m == 1, nil
}

// length reads a slice header: nil, or a length whose elements,
// at minSize bytes each, fit in the input left.
func (d *decoder) length(minSize int) (n int, isNil bool, err error) {
	u, err := d.uvarint()
	if err != nil || u == 0 {
		return 0, true, err
	}
	if u-1 > uint64(len(d.buf)/minSize) {
		return 0, false, errLength
	}
	return int(u - 1), false, nil
}

// take consumes the next n bytes.
func (d *decoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)) {
		return nil, errLength
	}
	p := d.buf[:n]
	d.buf = d.buf[n:]
	return p, nil
}

func decBool(d *decoder, v reflect.Value) error {
	x, err := d.marker()
	v.SetBool(x)
	return err
}

func decInt(d *decoder, v reflect.Value) error {
	x, err := d.varint()
	if err == nil && v.OverflowInt(x) {
		err = errRange
	}
	v.SetInt(x)
	return err
}

func decUint(d *decoder, v reflect.Value) error {
	x, err := d.uvarint()
	if err == nil && v.OverflowUint(x) {
		err = errRange
	}
	v.SetUint(x)
	return err
}

func decFloat(d *decoder, v reflect.Value) error {
	p, err := d.take(8)
	if err != nil {
		return errTruncated
	}
	v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(p)))
	return nil
}

func decString(d *decoder, v reflect.Value) error {
	n, err := d.uvarint()
	if err != nil {
		return err
	}
	p, err := d.take(n)
	if err != nil {
		return err
	}
	v.SetString(string(p))
	return nil
}

func decByteArray(d *decoder, v reflect.Value) error {
	dst := v.Bytes()
	p, err := d.take(uint64(len(dst)))
	if err != nil {
		return errTruncated
	}
	copy(dst, p)
	return nil
}

func decBytes(d *decoder, v reflect.Value) error {
	n, isNil, err := d.length(1)
	if err != nil || isNil {
		v.SetZero()
		return err
	}
	p, _ := d.take(uint64(n)) // length checked n against the input left
	v.SetBytes(append(make([]byte, 0, n), p...))
	return nil
}
