package mem

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// RegionKind classifies a mapped region the way LASERDETECT's event filter
// needs (§4.1): application text, library text, heap data, thread stack, or
// kernel. Anything not covered by a region is unmapped.
type RegionKind int

const (
	// RegionApp is the application's own text (and static data).
	RegionApp RegionKind = iota
	// RegionLib is shared-library text (libc, libpthread, ...).
	RegionLib
	// RegionHeap is the brk/mmap heap.
	RegionHeap
	// RegionStack is a thread stack.
	RegionStack
	// RegionKernel is the kernel half of the address space.
	RegionKernel
)

var regionKindNames = map[RegionKind]string{
	RegionApp:    "app",
	RegionLib:    "lib",
	RegionHeap:   "heap",
	RegionStack:  "stack",
	RegionKernel: "kernel",
}

// String returns the short name used in map listings.
func (k RegionKind) String() string {
	if s, ok := regionKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("RegionKind(%d)", int(k))
}

// Region is one contiguous mapping [Start, End).
type Region struct {
	Start Addr
	End   Addr
	Kind  RegionKind
	Name  string // pathname column, e.g. "/usr/bin/app" or "[stack:1]"
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Start && a < r.End }

// Map is a process virtual memory map: the simulation's stand-in for
// /proc/<pid>/maps. The zero value is an empty map ready to use.
type Map struct {
	regions []Region // sorted by Start, non-overlapping
}

// Add inserts a region. Regions must not overlap; Add panics on overlap
// because an overlapping map is a construction bug, never an input error.
func (m *Map) Add(r Region) {
	if err := m.insert(r); err != nil {
		panic(err.Error())
	}
}

// insert adds r unless it is empty or overlaps a region already mapped.
func (m *Map) insert(r Region) error {
	if r.End <= r.Start {
		return fmt.Errorf("mem: empty region %x-%x", r.Start, r.End)
	}
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].Start >= r.Start
	})
	if i > 0 && m.regions[i-1].End > r.Start {
		return fmt.Errorf("mem: region %x-%x overlaps %x-%x",
			r.Start, r.End, m.regions[i-1].Start, m.regions[i-1].End)
	}
	if i < len(m.regions) && r.End > m.regions[i].Start {
		return fmt.Errorf("mem: region %x-%x overlaps %x-%x",
			r.Start, r.End, m.regions[i].Start, m.regions[i].End)
	}
	m.regions = append(m.regions, Region{})
	copy(m.regions[i+1:], m.regions[i:])
	m.regions[i] = r
	return nil
}

// Lookup returns the region containing a, if any.
func (m *Map) Lookup(a Addr) (Region, bool) {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].End > a
	})
	if i < len(m.regions) && m.regions[i].Contains(a) {
		return m.regions[i], true
	}
	return Region{}, false
}

// Classify returns the kind of the region containing a and whether a is
// mapped at all.
func (m *Map) Classify(a Addr) (RegionKind, bool) {
	r, ok := m.Lookup(a)
	return r.Kind, ok
}

// IsStack reports whether a falls in any thread-stack region. LASERDETECT
// ignores stack data addresses (§4.1).
func (m *Map) IsStack(a Addr) bool {
	k, ok := m.Classify(a)
	return ok && k == RegionStack
}

// IsCode reports whether a is in application or library text, the two PC
// classes LASERDETECT keeps (§4.1).
func (m *Map) IsCode(a Addr) bool {
	k, ok := m.Classify(a)
	return ok && (k == RegionApp || k == RegionLib)
}

// Regions returns the regions in ascending address order. The returned
// slice is shared; callers must not modify it.
func (m *Map) Regions() []Region { return m.regions }

// Render writes the map in /proc/<pid>/maps format. Permissions are
// synthesized from the kind (r-xp for text, rw-p for data).
func (m *Map) Render() string {
	var b strings.Builder
	for _, r := range m.regions {
		perms := "rw-p"
		if r.Kind == RegionApp || r.Kind == RegionLib {
			perms = "r-xp"
		}
		fmt.Fprintf(&b, "%012x-%012x %s 00000000 00:00 0 %s\n",
			uint64(r.Start), uint64(r.End), perms, r.Name)
	}
	return b.String()
}

// ParseMap parses the output of Render (a /proc/<pid>/maps-style listing)
// back into a Map. The detector process uses this, mirroring how the real
// LASERDETECT parses procfs (§4.1). The kind is recovered from the
// pathname column: "[stack" prefixes are stacks, "[heap]" the heap,
// "[kernel]" the kernel, ".so" suffixes libraries, anything else app.
// A line is "start-end perms ..." with hexadecimal bounds; an empty or
// overlapping region is an error, and so is a line of
// bufio.MaxScanTokenSize bytes or more (the limit of the line scanner
// this parser replaced).
func ParseMap(s string) (*Map, error) {
	m := new(Map)
	for s != "" {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		if len(line) >= bufio.MaxScanTokenSize {
			return nil, fmt.Errorf("mem: maps line of %d bytes: %w", len(line), bufio.ErrTooLong)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		start, end, ok := parseMapsBounds(line)
		if !ok {
			return nil, fmt.Errorf("mem: bad maps line %q", line)
		}
		var rest string
		if i := strings.LastIndex(line, " "); i >= 0 {
			rest = line[i+1:]
		}
		kind := RegionApp
		switch {
		case strings.HasPrefix(rest, "[stack"):
			kind = RegionStack
		case rest == "[heap]":
			kind = RegionHeap
		case rest == "[kernel]":
			kind = RegionKernel
		case strings.HasSuffix(rest, ".so"):
			kind = RegionLib
		}
		if err := m.insert(Region{Start: Addr(start), End: Addr(end), Kind: kind, Name: rest}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// parseMapsBounds reads the "start-end perms" head of a trimmed maps
// line. It accepts what fmt.Sscanf(line, "%x-%x %s", ...) does: hex
// digits without a prefix, the dash straight after the start, spaces
// allowed after the dash, and at least one space then a non-space
// word after the end.
func parseMapsBounds(line string) (start, end uint64, ok bool) {
	start, rest, ok := cutHex(line)
	if !ok || !strings.HasPrefix(rest, "-") {
		return 0, 0, false
	}
	end, rest, ok = cutHex(strings.TrimLeftFunc(rest[1:], unicode.IsSpace))
	if !ok {
		return 0, 0, false
	}
	perms := strings.TrimLeftFunc(rest, unicode.IsSpace)
	if len(perms) == len(rest) || perms == "" {
		return 0, 0, false
	}
	return start, end, true
}

// cutHex parses the leading hexadecimal digits of s as a uint64.
func cutHex(s string) (v uint64, rest string, ok bool) {
	n := 0
	for n < len(s) && isHexDigit(s[n]) {
		n++
	}
	if n == 0 {
		return 0, s, false
	}
	v, err := strconv.ParseUint(s[:n], 16, 64)
	return v, s[n:], err == nil
}

func isHexDigit(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// StandardMap builds the canonical process map used by the machine: app
// text, library text, a heap of heapSize bytes, one stack per thread, and
// the kernel range. It is what the simulated /proc exposes to the detector.
func StandardMap(appTextSize, libTextSize, heapSize Addr, threads int) *Map {
	m := new(Map)
	if appTextSize > 0 {
		m.Add(Region{Start: AppTextBase, End: AppTextBase + appTextSize, Kind: RegionApp, Name: "/usr/bin/app"})
	}
	if libTextSize > 0 {
		m.Add(Region{Start: LibTextBase, End: LibTextBase + libTextSize, Kind: RegionLib, Name: "/lib/libpthread.so"})
	}
	if heapSize > 0 {
		m.Add(Region{Start: HeapBase, End: HeapBase + heapSize, Kind: RegionHeap, Name: "[heap]"})
	}
	for t := 0; t < threads; t++ {
		base := StackBase + Addr(t)*2*StackSize
		m.Add(Region{Start: base, End: base + StackSize, Kind: RegionStack,
			Name: fmt.Sprintf("[stack:%d]", t)})
	}
	m.Add(Region{Start: KernelBase, End: ^Addr(0), Kind: RegionKernel, Name: "[kernel]"})
	return m
}

// StackFor returns the [base, top) range of thread t's stack as laid out by
// StandardMap, and the initial stack pointer (top, 16-byte aligned down).
func StackFor(t int) (base, top, sp Addr) {
	base = StackBase + Addr(t)*2*StackSize
	top = base + StackSize
	sp = (top - 64) &^ 15
	return base, top, sp
}
