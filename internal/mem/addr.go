// Package mem models the target process address space: cache-line
// geometry, the virtual memory map (in /proc/<pid>/maps form), and a heap
// allocator whose layout decisions — chunk headers, alignment, base bias —
// are the ones that make false sharing appear and disappear in the paper.
package mem

// Addr is a virtual address in the simulated 64-bit address space.
type Addr uint64

// Cache-line geometry of the simulated machine. The paper's platform uses
// 64-byte lines throughout (§2).
const (
	LineSize  = 64
	LineShift = 6
)

// Line identifies a cache line: the address with the low LineShift bits
// cleared.
type Line Addr

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a &^ (LineSize - 1)) }

// Offset returns the byte offset of a within its cache line.
func Offset(a Addr) uint { return uint(a & (LineSize - 1)) }

// SpansLines reports whether an access of size bytes at a crosses a cache
// line boundary. LASERDETECT treats such accesses as touching only the
// first line, matching the single data address in a HITM record (§4.3).
func SpansLines(a Addr, size uint) bool {
	return size > 0 && LineOf(a) != LineOf(a+Addr(size)-1)
}

// AlignUp rounds a up to the next multiple of align, which must be a
// power of two.
func AlignUp(a Addr, align Addr) Addr {
	return (a + align - 1) &^ (align - 1)
}

// Canonical layout of the simulated address space. The constants mimic a
// classic x86-64 Linux process so that the procfs-format memory map and the
// "95% of incorrect data addresses are unmapped" characterization (§3.1)
// are meaningful.
const (
	AppTextBase Addr = 0x0000_0000_0040_0000 // application .text
	HeapBase    Addr = 0x0000_0000_0060_0000 // brk heap, grows up
	LibTextBase Addr = 0x0000_7f00_0000_0000 // shared library .text
	StackBase   Addr = 0x0000_7ffc_0000_0000 // thread stacks, one region per thread
	StackSize   Addr = 0x0000_0000_0010_0000 // 1 MiB per thread stack
	KernelBase  Addr = 0xffff_8000_0000_0000 // kernel half of the canonical space
)

// InstrBytes is the nominal encoded size of one simulated instruction.
// PCs advance by this amount so "adjacent PC" (§3.1) is a well-defined
// ±InstrBytes neighborhood.
const InstrBytes = 4

// Range is a half-open address range [Start, End). The intra-run
// parallel engine describes thread-private data — stacks, per-thread
// heap slices — as Range lists.
type Range struct {
	Start, End Addr
}

// Contains reports whether a falls inside the range.
func (r Range) Contains(a Addr) bool { return a >= r.Start && a < r.End }

// Empty reports whether the range covers no addresses.
func (r Range) Empty() bool { return r.End <= r.Start }

// LineAligned returns the range shrunk inward to whole cache lines: the
// start rounded up and the end rounded down to a line boundary. Privacy
// is a per-line property (coherence is line-granular), so partial lines
// at the edges of a declared region cannot be treated as private.
func (r Range) LineAligned() Range {
	return Range{Start: AlignUp(r.Start, LineSize), End: r.End &^ (LineSize - 1)}
}

// Overlaps reports whether two ranges share any address.
func (r Range) Overlaps(o Range) bool { return r.Start < o.End && o.Start < r.End }
