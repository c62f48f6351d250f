package machine

import (
	"slices"
	"testing"

	"repro/internal/mem"
)

// refSSB is the byte-at-a-time store buffer the line-granular SSB must
// match: every byte of an access looks its line up on its own.
type refSSB struct {
	entries map[mem.Line]*ssbEntry
	order   []mem.Line
}

func newRefSSB() *refSSB { return &refSSB{entries: make(map[mem.Line]*ssbEntry)} }

func (s *refSSB) put(addr mem.Addr, size uint8, v uint64) {
	for i := uint8(0); i < size; i++ {
		a := addr + mem.Addr(i)
		line := mem.LineOf(a)
		e := s.entries[line]
		if e == nil {
			e = new(ssbEntry)
			s.entries[line] = e
			s.order = append(s.order, line)
		}
		off := mem.Offset(a)
		e.data[off] = byte(v >> (8 * i))
		e.mask |= 1 << off
	}
}

func (s *refSSB) get(addr mem.Addr, size uint8, backing func(mem.Addr) byte) (v uint64, hit bool) {
	for i := uint8(0); i < size; i++ {
		a := addr + mem.Addr(i)
		var b byte
		if e := s.entries[mem.LineOf(a)]; e != nil && e.mask&(1<<mem.Offset(a)) != 0 {
			b = e.data[mem.Offset(a)]
			hit = true
		} else {
			b = backing(a)
		}
		v |= uint64(b) << (8 * i)
	}
	return v, hit
}

func (s *refSSB) getLocal(addr mem.Addr, size uint8) (v uint64, ok bool) {
	for i := uint8(0); i < size; i++ {
		a := addr + mem.Addr(i)
		e := s.entries[mem.LineOf(a)]
		if e == nil || e.mask&(1<<mem.Offset(a)) == 0 {
			return 0, false
		}
		v |= uint64(e.data[mem.Offset(a)]) << (8 * i)
	}
	return v, true
}

func (s *refSSB) setEntries(lines []SSBLine) {
	clear(s.entries)
	s.order = s.order[:0]
	for _, l := range lines {
		s.entries[l.Line] = &ssbEntry{data: l.Data, mask: l.Mask}
		s.order = append(s.order, l.Line)
	}
}

// fuzzBase is the first of the fuzzLines lines the fuzzer addresses.
const (
	fuzzBase  = mem.Addr(0x7000_0000)
	fuzzLines = 6
)

// backingByte is the fuzzer's shared memory: a fixed byte per address.
func backingByte(a mem.Addr) byte { return byte(uint64(a)*0x9e37 + uint64(a)>>8) }

// byteReader hands out the fuzz input a byte at a time, then zeros.
type byteReader []byte

func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// access decodes an address (any offset in one of fuzzLines lines, so
// sizes past the line's end span into the next) and a size of 1–8.
func (r *byteReader) access() (mem.Addr, uint8) {
	line := mem.Addr(r.next() % fuzzLines)
	return fuzzBase + line*mem.LineSize + mem.Addr(r.next()%mem.LineSize), 1 + r.next()%8
}

// FuzzSSB drives the SSB and the reference model through the same
// operation sequence and requires every observable to agree after every
// step: values, hit flags, Len, Lines order and each Entry. The seed
// corpus is testdata/fuzz/FuzzSSB.
func FuzzSSB(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ref := NewSSB(), newRefSSB()
		var snap []SSBLine
		r := byteReader(data)
		for step := 0; len(r) > 0; step++ {
			switch op := r.next() % 7; op {
			case 0:
				addr, size := r.access()
				var v uint64
				for i := 0; i < 8; i++ {
					v |= uint64(r.next()) << (8 * i)
				}
				s.Put(addr, size, v)
				ref.put(addr, size, v)
			case 1:
				addr, size := r.access()
				loads := 0
				got, hit := s.Get(addr, size, func(a mem.Addr, n uint8) uint64 {
					loads++
					if a != addr || n != size {
						t.Fatalf("step %d: backing load of %d bytes at %#x, want %d at %#x", step, n, a, size, addr)
					}
					var w uint64
					for i := uint8(0); i < n; i++ {
						w |= uint64(backingByte(a+mem.Addr(i))) << (8 * i)
					}
					return w
				})
				want, wantHit := ref.get(addr, size, backingByte)
				if got != want || hit != wantHit {
					t.Fatalf("step %d: Get(%#x, %d) = %#x, %v; want %#x, %v", step, addr, size, got, hit, want, wantHit)
				}
				if _, full := ref.getLocal(addr, size); loads > 1 || full && loads != 0 {
					t.Fatalf("step %d: Get(%#x, %d) made %d backing loads (full hit %v)", step, addr, size, loads, full)
				}
			case 2:
				addr, size := r.access()
				got, ok := s.GetLocal(addr, size)
				want, wantOK := ref.getLocal(addr, size)
				if got != want || ok != wantOK {
					t.Fatalf("step %d: GetLocal(%#x, %d) = %#x, %v; want %#x, %v", step, addr, size, got, ok, want, wantOK)
				}
			case 3:
				addr, _ := r.access()
				l := mem.LineOf(addr)
				_, want := ref.entries[l]
				if got := s.ContainsLine(l); got != want {
					t.Fatalf("step %d: ContainsLine(%#x) = %v, want %v", step, l, got, want)
				}
			case 4:
				s.Clear()
				ref.setEntries(nil)
			case 5:
				snap = captureSSB(s)
			case 6:
				s.setEntries(snap)
				ref.setEntries(snap)
			}
			checkSSB(t, step, s, ref)
		}
	})
}

// checkSSB compares the whole buffer state against the reference.
func checkSSB(t *testing.T, step int, s *SSB, ref *refSSB) {
	t.Helper()
	if s.Len() != len(ref.entries) || s.Active() != (len(ref.entries) > 0) {
		t.Fatalf("step %d: Len %d, Active %v; want %d", step, s.Len(), s.Active(), len(ref.entries))
	}
	if !slices.Equal(s.Lines(), ref.order) {
		t.Fatalf("step %d: Lines %#x, want %#x", step, s.Lines(), ref.order)
	}
	for i := mem.Addr(0); i <= fuzzLines; i++ {
		l := mem.LineOf(fuzzBase + i*mem.LineSize)
		data, mask, ok := s.Entry(l)
		e := ref.entries[l]
		if ok != (e != nil) {
			t.Fatalf("step %d: Entry(%#x) ok=%v, want %v", step, l, ok, e != nil)
		}
		if e != nil && (data != e.data || mask != e.mask) {
			t.Fatalf("step %d: Entry(%#x) = %x/%#x, want %x/%#x", step, l, data, mask, e.data, e.mask)
		}
	}
}
