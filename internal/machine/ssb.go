package machine

import (
	"encoding/binary"

	"repro/internal/mem"
)

// ssbEntry buffers the written bytes of one cache line. The bitmap records
// which bytes are valid, which is how the paper's SSB handles unaligned and
// partial accesses (§5.1).
type ssbEntry struct {
	data [mem.LineSize]byte
	mask uint64 // bit i set ⇒ data[i] holds a buffered byte
}

// SSB is the per-thread software store buffer installed by LASERREPAIR.
// It is a coalescing buffer: one entry per cache line, FIFO in first-touch
// order. Coalescing alone would violate TSO on flush, which is why flushes
// execute inside one hardware transaction (§5.5).
//
// Accesses are line-granular: an access is split at the line boundary and
// each part looks its entry up once, through a one-entry most-recently-used
// pointer in front of the map (repaired loops hit the same line over and
// over), then moves its bytes and valid bits as one shifted word.
type SSB struct {
	entries map[mem.Line]*ssbEntry
	order   []mem.Line // first-touch order, for deterministic flushing
	mru     *ssbEntry  // entry of the last line touched; nil after Clear
	mruLine mem.Line
}

// NewSSB returns an empty store buffer.
func NewSSB() *SSB {
	return &SSB{entries: make(map[mem.Line]*ssbEntry)}
}

// Active reports whether any stores are buffered; while inactive,
// instrumented code takes the cheap path (§5.2: after a flush, operations
// no longer need the SSB until another store uses it).
func (s *SSB) Active() bool { return len(s.entries) > 0 }

// Len returns the number of buffered cache lines.
func (s *SSB) Len() int { return len(s.entries) }

// lookup returns the entry of line l, or nil when l holds no bytes.
func (s *SSB) lookup(l mem.Line) *ssbEntry {
	if s.mru != nil && s.mruLine == l {
		return s.mru
	}
	e := s.entries[l]
	if e != nil {
		s.mru, s.mruLine = e, l
	}
	return e
}

// splitAtLine returns how many of the size bytes at addr fall in addr's
// line; the rest (size - n) start the next line.
func splitAtLine(addr mem.Addr, size uint8) (n uint8) {
	if room := mem.LineSize - mem.Offset(addr); uint(size) > room {
		return uint8(room)
	}
	return size
}

// lowBits returns a mask of the low n bits (n ≤ 8).
func lowBits(n uint8) uint64 { return 1<<n - 1 }

// byteMask spreads the low 8 bits of bits into a byte mask: byte i of the
// result is 0xFF when bit i is set and 0 otherwise.
func byteMask(bits uint64) uint64 {
	// Replicate the bits into every byte, keep bit i in byte i, then turn
	// each nonzero byte into 0x80 (adding 0x7F cannot carry out of a byte
	// holding at most 0x80) and widen 0x80 to 0xFF.
	t := (bits & 0xFF * 0x0101010101010101) & 0x8040201008040201
	hi := (t + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
	return (hi >> 7) * 0xFF
}

// Put buffers a store of size (1 to 8) bytes of v at addr
// (little-endian), possibly spanning two lines.
func (s *SSB) Put(addr mem.Addr, size uint8, v uint64) {
	n := splitAtLine(addr, size)
	s.putLine(addr, n, v)
	if n < size {
		s.putLine(addr+mem.Addr(n), size-n, v>>(8*n))
	}
}

// putLine buffers the low n bytes of v at addr, all within addr's line.
func (s *SSB) putLine(addr mem.Addr, n uint8, v uint64) {
	l := mem.LineOf(addr)
	e := s.lookup(l)
	if e == nil {
		e = new(ssbEntry)
		s.entries[l] = e
		s.order = append(s.order, l)
		s.mru, s.mruLine = e, l
	}
	off := mem.Offset(addr)
	if n == 8 {
		binary.LittleEndian.PutUint64(e.data[off:off+8], v)
	} else {
		for i := uint(0); i < uint(n); i++ {
			e.data[off+i] = byte(v >> (8 * i))
		}
	}
	e.mask |= lowBits(n) << off
}

// gather returns the buffered bytes of a size-byte access at addr, in
// place, and a byte mask of which of them are buffered.
func (s *SSB) gather(addr mem.Addr, size uint8) (v, bytes uint64) {
	n := splitAtLine(addr, size)
	v, bytes = s.gatherLine(addr, n)
	if n < size {
		hv, hb := s.gatherLine(addr+mem.Addr(n), size-n)
		v |= hv << (8 * n)
		bytes |= hb << (8 * n)
	}
	return v, bytes
}

// gatherLine is gather for n bytes that all lie within addr's line.
func (s *SSB) gatherLine(addr mem.Addr, n uint8) (v, bytes uint64) {
	e := s.lookup(mem.LineOf(addr))
	if e == nil {
		return 0, 0
	}
	off := mem.Offset(addr)
	bits := e.mask >> off & lowBits(n)
	if bits == 0 {
		return 0, 0
	}
	bytes = byteMask(bits)
	if off+8 <= mem.LineSize {
		v = binary.LittleEndian.Uint64(e.data[off : off+8])
	} else {
		for i := uint(0); i < uint(n); i++ {
			v |= uint64(e.data[off+i]) << (8 * i)
		}
	}
	return v & bytes, bytes
}

// Get assembles a load of size bytes at addr, taking each byte from the
// buffer when present and from backing memory otherwise; load reads
// size bytes of backing memory (little-endian, zero-extended) and is
// called at most once — not at all when every byte is buffered. It
// returns the value and whether any byte came from the buffer.
func (s *SSB) Get(addr mem.Addr, size uint8, load func(mem.Addr, uint8) uint64) (v uint64, hit bool) {
	v, bytes := s.gather(addr, size)
	switch bytes {
	case 0:
		return load(addr, size), false
	case byteMask(lowBits(size)):
		return v, true
	}
	return v | load(addr, size)&^bytes, true
}

// GetLocal assembles a load only when every requested byte is buffered,
// reporting ok=false otherwise. The intra-run parallel engine uses it
// for private-memory (Sheriff) execution: a full-hit load is provably
// thread-local, while any byte served from shared memory could observe
// another thread's commit and must retire in the global serial order.
func (s *SSB) GetLocal(addr mem.Addr, size uint8) (v uint64, ok bool) {
	v, bytes := s.gather(addr, size)
	if bytes != byteMask(lowBits(size)) {
		return 0, false
	}
	return v, true
}

// ContainsLine reports whether the buffer holds bytes of the given line;
// the inserted alias checks of §5.3 use this.
func (s *SSB) ContainsLine(l mem.Line) bool { return s.lookup(l) != nil }

// Lines returns the buffered lines in first-touch order. The returned
// slice is owned by the SSB.
func (s *SSB) Lines() []mem.Line { return s.order }

// Entry returns the buffered bytes and validity mask for a line.
func (s *SSB) Entry(l mem.Line) (data [mem.LineSize]byte, mask uint64, ok bool) {
	e := s.entries[l]
	if e == nil {
		return data, 0, false
	}
	return e.data, e.mask, true
}

// Clear empties the buffer after a flush.
func (s *SSB) Clear() {
	clear(s.entries)
	s.order = s.order[:0]
	s.mru = nil
}
