// Package workload defines the 35 benchmark configurations of the paper's
// evaluation (§7): the Phoenix, Parsec and Splash2x suites, rebuilt as
// synthetic programs for the simulated machine. Each workload reproduces
// its benchmark's documented sharing behaviour — the bugs of Tables 1–2,
// the instruction mix that shapes Figures 10–14, and the Sheriff
// compatibility column — at a scale the interpreter can execute quickly.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/baseline/sheriff"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Variant selects which build of a workload to run.
type Variant int

// Variants.
const (
	// Native is the benchmark as shipped, including its bugs.
	Native Variant = iota
	// Fixed applies the paper's manual source fix (§7.4): padding,
	// alignment, restructuring, or lock-free replacement.
	Fixed
)

// Options parameterize a build.
type Options struct {
	Variant Variant
	// HeapBias shifts the heap base, modelling the allocator layout
	// perturbation of running under a tool (§7.2's lu_ncb effect).
	HeapBias mem.Addr
	// Scale multiplies iteration counts; 1.0 is the benchmark default.
	// Tests use small scales, accuracy experiments larger ones.
	Scale float64
}

// iters scales an iteration count, keeping at least one iteration.
func (o Options) iters(base int64) int64 {
	s := o.Scale
	if s == 0 {
		s = 1
	}
	n := int64(float64(base) * s)
	if n < 1 {
		n = 1
	}
	return n
}

type allocSite struct {
	start, end mem.Addr
	loc        isa.SourceLoc
}

type dataInit struct {
	addr mem.Addr
	size uint8
	val  uint64
}

// Image is a built, runnable workload instance.
type Image struct {
	Prog    *isa.Program
	Specs   []machine.ThreadSpec
	Threads int

	sites   []allocSite
	inits   []dataInit
	private [][]mem.Range
}

// addSite records an allocation's source location for Sheriff-style
// data-centric reporting.
func (img *Image) addSite(start, size mem.Addr, loc isa.SourceLoc) {
	img.sites = append(img.sites, allocSite{start: start, end: start + size, loc: loc})
}

// setData schedules a memory initialization performed by the loader.
func (img *Image) setData(addr mem.Addr, size uint8, val uint64) {
	img.inits = append(img.inits, dataInit{addr, size, val})
}

// addPrivate declares [start, start+size) as touched only by thread tid
// for the workload's whole lifetime — the allocation metadata the
// intra-run parallel engine consumes. Only whole
// cache lines inside the range count (privacy is a line property), so
// packed per-thread slots that share a line must not be declared. A
// declaration another thread in fact touches is a workload bug; the
// engine's ValidateSharing mode and the cross-engine equivalence tests
// exist to catch it.
func (img *Image) addPrivate(tid int, start, size mem.Addr) {
	for len(img.private) <= tid {
		img.private = append(img.private, nil)
	}
	img.private[tid] = append(img.private[tid], mem.Range{Start: start, End: start + size})
}

// PrivateRanges returns the declared per-thread private ranges, indexed
// by thread id, for machine.Config.PrivateData. The slices are shared;
// callers must not modify them.
func (img *Image) PrivateRanges() [][]mem.Range { return img.private }

// ResolveLine maps a cache line to the source location of the allocation
// containing it, if any — what Sheriff reports instead of code locations.
func (img *Image) ResolveLine(l mem.Line) (isa.SourceLoc, bool) {
	lo, hi := mem.Addr(l), mem.Addr(l)+mem.LineSize
	for _, s := range img.sites {
		if lo < s.end && s.start < hi {
			return s.loc, true
		}
	}
	return isa.SourceLoc{}, false
}

// Init applies the image's static data to a fresh machine.
func (img *Image) Init(m *machine.Machine) {
	for _, d := range img.inits {
		m.WriteData(d.addr, d.size, d.val)
	}
}

// VMMap builds the process memory map for the image.
func (img *Image) VMMap() *mem.Map {
	return mem.StandardMap(img.Prog.AppTextSize(), img.Prog.LibTextSize(), HeapSize, img.Threads)
}

// HeapSize is every workload's heap reservation.
const HeapSize mem.Addr = 1 << 22

// Workload is one benchmark configuration.
type Workload struct {
	Name  string
	Suite string // "phoenix", "parsec" or "splash2x"
	// Threads the benchmark spawns (the paper's machine has 4 cores).
	Threads int
	// Sheriff compatibility, from Table 1 / §7.3.
	Sheriff sheriff.Status
	// SheriffNote explains an i/x marker ("uses spin locks", …).
	SheriffNote string
	// SheriffSmallOK marks Crash workloads that still run under Sheriff
	// with reduced (simlarge-style) inputs — the * rows of Figure 14.
	SheriffSmallOK bool
	// HasFix marks workloads with a Fixed variant (§7.4 manual fixes).
	HasFix bool
	// FixNote describes the manual fix.
	FixNote string
	// Build constructs a fresh image.
	Build func(o Options) *Image
}

var registry = map[string]*Workload{}
var ordered []string

func register(w *Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate %q", w.Name))
	}
	if w.Threads == 0 {
		w.Threads = 4
	}
	registry[w.Name] = w
	ordered = append(ordered, w.Name)
}

// All returns every workload in the paper's (alphabetical) table order.
func All() []*Workload {
	names := append([]string(nil), ordered...)
	sort.Strings(names)
	out := make([]*Workload, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Get looks a workload up by name.
func Get(name string) (*Workload, bool) {
	w, ok := registry[name]
	return w, ok
}

// Names returns all workload names in table order.
func Names() []string {
	names := append([]string(nil), ordered...)
	sort.Strings(names)
	return names
}
