// Package core implements LASERDETECT, the paper's contention-detection
// pipeline (§4, Figure 4): HITM records stream in from the driver, are
// filtered against the process memory map, aggregated by source line,
// thresholded by event rate, and classified as true or false sharing by a
// byte-granular cache line model driven by the binary's load/store sets.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/driver"
	"repro/internal/isa"
	"repro/internal/mem"
)

// ContentionKind is the detector's verdict for one source line.
type ContentionKind int

// Verdicts. Unknown means too few usable data addresses survived filtering
// to classify — the linear_regression outcome in Table 2.
const (
	Unknown ContentionKind = iota
	TrueSharing
	FalseSharing
)

var kindNames = [...]string{"unknown", "TS", "FS"}

// String returns the short name used in the paper's tables.
func (k ContentionKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("ContentionKind(%d)", int(k))
}

// Config parameterizes the detector.
type Config struct {
	// RateThreshold filters reported lines by HITM events/second;
	// the paper settles on 1K HITMs/s (§7.1).
	RateThreshold float64
	// SAV scales sampled record counts back to event rates.
	SAV int
	// MinClassifyEvents is the minimum number of cache-line-model events
	// needed before a TS/FS verdict is issued; below it the line reports
	// Unknown.
	MinClassifyEvents int
	// RepairRateThreshold is the false-sharing event rate (FS
	// events/second, sampled) above which LASERREPAIR is invoked (§4.4).
	RepairRateThreshold float64
	// RepairAllContention widens the §4.4 trigger from false-sharing-
	// leaning lines to every contended line, and makes RepairCandidates
	// return every PC that produced a classified cache-line-model event
	// rather than only false-sharing PCs. The paper's trigger
	// deliberately ignores true sharing ("avoiding fruitless attempts to
	// automatically repair true sharing", §7.1), so this stays off in
	// normal operation; the experiment harness enables it for
	// speculative probe runs, where measured repair trials — not the
	// detector's classification — decide whether any rewrite helps a
	// workload whose contention classifies as true sharing.
	RepairAllContention bool
}

// MinModelFraction is the minimum fraction of a line's records that
// must both carry a usable data address and decode to a memory
// instruction before the line is classified. Store-triggered records
// cap this fraction near 1/3 (exact plus clean-skid captures over all
// skid captures), so write-dominated contention — linear_regression
// at -O3 — lands below the bar and reports Unknown: "unable to
// conclusively identify the type … due to low data address accuracy"
// (§7.1, Table 2). Load-dominated lines sit well above it.
const MinModelFraction = 0.38

// ProcessCyclesPerRecord models the detector's own CPU usage, for the
// Figure 12 accounting. The detector is a separate process; this cost
// does not perturb the application.
const ProcessCyclesPerRecord = 260

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		RateThreshold:       1_000,
		SAV:                 19,
		MinClassifyEvents:   12,
		RepairRateThreshold: 60_000,
	}
}

// lineStat accumulates per-source-line evidence.
type lineStat struct {
	records uint64 // HITM records attributed to this line
	badAddr uint64 // records whose data address failed the outlier filter
	ts, fs  uint64 // cache-line-model event counts
}

// lastAccess is one entry of the Figure 5 cache line model: the byte
// bitmap and type of the previous access to the line.
type lastAccess struct {
	bits  uint64
	write bool
	valid bool
}

// FilterStats counts records dropped at each pipeline stage.
type FilterStats struct {
	Processed      uint64
	DroppedPC      uint64 // PC not in application or library text
	DroppedStack   uint64 // data address on a thread stack
	DroppedOutlier uint64 // data address unmapped or in the kernel
	Kept           uint64
	ModelEvents    uint64 // records that reached the cache line model
}

// Pipeline is the LASERDETECT event-processing pipeline. It is built per
// monitored process: the detector parses the process' /proc maps and
// reads the load/store sets (§4.3) straight from its binary's text.
//
// The pipeline is epoch-aware: alongside the cumulative aggregates that
// back the exit report, it keeps a second, epoch-scoped set of counters
// that the §4.4 repair trigger reads. After LASERREPAIR rewrites the
// program, the session installs the rewritten program and its reverse
// index with SetPCRemap — incoming records are translated back to
// original-program PCs before any filtering — and calls BeginEpoch,
// which resets only the trigger counters. Detection thereby re-arms: a
// later epoch triggers repair again only on fresh post-repair evidence,
// while the cumulative report keeps attributing every record, pre- and
// post-repair, to the original binary.
type Pipeline struct {
	cfg  Config
	vm   *mem.Map
	prog *isa.Program

	// remapProg is the installed rewritten program and remapRev its
	// reverse index (rewritten instruction → original instruction);
	// together they translate rewritten-program PCs back to the
	// original PCs they descend from. Nil until a repair is installed.
	remapProg *isa.Program
	remapRev  []int

	lines   map[isa.SourceLoc]*lineStat
	model   map[mem.Line]*lastAccess
	fsByPC  map[mem.Addr]uint64
	filter  FilterStats
	cycles  uint64 // detector CPU cycles consumed (Figure 12)
	firstTS uint64
	lastTS  uint64

	// Epoch-scoped mirrors of lines and fsByPC, reset by BeginEpoch;
	// RepairCandidates and EpochReportAt read these. In epoch 0 they are
	// identical to the cumulative aggregates.
	epoch      int
	epochStart float64 // observation seconds when the epoch began
	elines     map[isa.SourceLoc]*lineStat
	efsByPC    map[mem.Addr]uint64
	// ePCs counts every classified model event per PC — true- and
	// false-sharing alike — for the RepairAllContention probe trigger.
	// Only maintained when that knob is set; nil otherwise.
	ePCs map[mem.Addr]uint64

	// sortBuf is the reusable staging slice of Feed's timestamp sort, so
	// the streaming hot path stops allocating a copy per poll.
	sortBuf []driver.Record
}

// NewPipeline builds a detector for a process described by its memory map
// (parsed from procfs text, as the real detector does) and program.
func NewPipeline(cfg Config, mapsText string, prog *isa.Program) (*Pipeline, error) {
	vm, err := mem.ParseMap(mapsText)
	if err != nil {
		return nil, fmt.Errorf("core: parsing memory map: %w", err)
	}
	if cfg.SAV <= 0 {
		return nil, fmt.Errorf("core: SAV must be positive, got %d", cfg.SAV)
	}
	p := &Pipeline{
		cfg:     cfg,
		vm:      vm,
		prog:    prog,
		lines:   make(map[isa.SourceLoc]*lineStat),
		model:   make(map[mem.Line]*lastAccess),
		fsByPC:  make(map[mem.Addr]uint64),
		elines:  make(map[isa.SourceLoc]*lineStat),
		efsByPC: make(map[mem.Addr]uint64),
	}
	if cfg.RepairAllContention {
		p.ePCs = make(map[mem.Addr]uint64)
	}
	return p, nil
}

// SetPCRemap installs (or, with a nil program, clears) the
// rewritten→original PC translation of LASERREPAIR: the installed
// program cur and rev, its reverse index into the original program;
// both are only read. The translation is applied to each
// record before any pipeline stage: the rewritten program is longer
// than the text mapping the detector parsed at attach time, so
// untranslated post-repair PCs would be dropped as non-code, and
// translated ones keep the per-line aggregation keyed to the original
// source.
func (p *Pipeline) SetPCRemap(cur *isa.Program, rev []int) {
	p.remapProg, p.remapRev = cur, rev
}

// Epoch returns the index of the detection epoch in progress (0 until
// the first repair).
func (p *Pipeline) Epoch() int { return p.epoch }

// BeginEpoch starts a new detection epoch at the given observation time:
// the epoch-scoped trigger counters reset, so re-triggering repair
// requires fresh evidence, while the cumulative aggregates keep running.
func (p *Pipeline) BeginEpoch(seconds float64) {
	p.epoch++
	p.epochStart = seconds
	p.elines = make(map[isa.SourceLoc]*lineStat)
	p.efsByPC = make(map[mem.Addr]uint64)
	if p.cfg.RepairAllContention {
		p.ePCs = make(map[mem.Addr]uint64)
	}
}

// Feed pushes a batch of driver records through the pipeline. Records are
// re-ordered by their hardware timestamp first: per-core PEBS buffers
// arrive as batches, but the cache line model needs the interleaved global
// order in which the HITM events actually occurred. The staging copy is
// reused across calls, so a quiet poll interval costs nothing and a busy
// one allocates only until the buffer has grown to the high-water mark.
func (p *Pipeline) Feed(recs []driver.Record) {
	if len(recs) == 0 {
		return
	}
	p.sortBuf = append(p.sortBuf[:0], recs...)
	slices.SortStableFunc(p.sortBuf, func(a, b driver.Record) int { return cmp.Compare(a.Cycles, b.Cycles) })
	for _, r := range p.sortBuf {
		p.feedOne(r)
	}
	p.cycles += uint64(len(recs)) * ProcessCyclesPerRecord
}

func (p *Pipeline) feedOne(r driver.Record) {
	// Stage 0: when a repair is installed, translate rewritten-program
	// PCs back to the original instruction they descend from. PCs the
	// installed program does not know (spurious captures drawn from the
	// original binary, or genuinely wild addresses) pass through
	// unchanged.
	if p.remapProg != nil {
		if i, ok := p.remapProg.IndexOf(r.PC); ok {
			r.PC = p.prog.Instrs[p.remapRev[i]].PC
		}
	}
	p.filter.Processed++
	if p.filter.Processed == 1 || r.Cycles < p.firstTS {
		p.firstTS = r.Cycles
	}
	if r.Cycles > p.lastTS {
		p.lastTS = r.Cycles
	}
	// Stage 1: PC must come from the application or a library (§4.1).
	if !p.vm.IsCode(r.PC) {
		p.filter.DroppedPC++
		return
	}
	// Stage 2: stack data addresses are not cross-thread sharing (§4.1).
	if p.vm.IsStack(r.Addr) {
		p.filter.DroppedStack++
		return
	}
	idx, pcOK := p.prog.IndexOf(r.PC)
	if !pcOK {
		// A code address that decodes to no instruction; treat like a
		// non-code PC.
		p.filter.DroppedPC++
		return
	}
	loc := p.prog.LocOf(idx)
	ls := p.lines[loc]
	if ls == nil {
		ls = &lineStat{}
		p.lines[loc] = ls
	}
	els := p.elines[loc]
	if els == nil {
		els = &lineStat{}
		p.elines[loc] = els
	}

	// Stage 3: outlier filtering (§3.1): 95 % of incorrect data addresses
	// point at unmapped memory, so records whose address is unmapped or
	// in the kernel are discarded as obviously spurious. The drop is
	// remembered per line: a line whose records mostly carry unusable
	// addresses cannot be classified ("low data address accuracy", §7.1).
	if kind, mapped := p.vm.Classify(r.Addr); !mapped || kind == mem.RegionKernel {
		p.filter.DroppedOutlier++
		ls.badAddr++
		els.badAddr++
		return
	}
	p.filter.Kept++

	// Stage 4: aggregate by source line (§4.2).
	ls.records++
	els.records++

	// Stage 5: the cache line model (§4.3, Figure 5), using the
	// load/store sets to decode the access type and size. The sets are
	// the program text itself: the instruction the PC resolved to says
	// whether it loads, stores or both, and how many bytes it touches.
	in := &p.prog.Instrs[idx]
	if !in.IsMem() {
		return
	}
	p.filter.ModelEvents++
	line := mem.LineOf(r.Addr)
	off := mem.Offset(r.Addr)
	size := uint(in.Size)
	if off+size > mem.LineSize {
		size = mem.LineSize - off
	}
	bits := (uint64(1)<<size - 1) << off
	write := in.IsStore()
	la := p.model[line]
	if la == nil {
		la = &lastAccess{}
		p.model[line] = la
	}
	if la.valid {
		if p.ePCs != nil {
			p.ePCs[r.PC]++
		}
		// Figure 5: overlapping consecutive accesses to one line are
		// true sharing, disjoint ones false sharing. A writer is always
		// involved at line granularity — these are HITM-derived records
		// — so overlap alone decides; the access types are still kept
		// in the model for the report.
		if overlap := la.bits&bits != 0; overlap {
			ls.ts++
			els.ts++
		} else {
			ls.fs++
			els.fs++
			p.fsByPC[r.PC]++
			p.efsByPC[r.PC]++
		}
	}
	la.bits, la.write, la.valid = bits, write, true
}

// DetectorCycles returns the CPU time the detector itself consumed.
func (p *Pipeline) DetectorCycles() uint64 { return p.cycles }

// Filter returns the per-stage drop counters.
func (p *Pipeline) Filter() FilterStats { return p.filter }

// ReportLine is one entry of the contention report.
type ReportLine struct {
	Loc  isa.SourceLoc
	Rate float64 // estimated HITM events/second for the line
	TS   uint64  // true-sharing model events
	FS   uint64  // false-sharing model events
	Kind ContentionKind
}

// Report is the detector's output for the programmer.
type Report struct {
	Lines   []ReportLine // above threshold, sorted by descending rate
	Seconds float64      // observation window used for rates
}

// ReportAt computes the report for an observation window of the given
// simulated duration, applying threshold as the line rate filter. The
// aggregates are retained, so different thresholds can be explored offline
// without rerunning the program (§4.2, Figure 9) — and, because this only
// reads the retained counters, at any point mid-run (a session snapshot),
// not just at exit.
func (p *Pipeline) ReportAt(seconds, threshold float64) *Report {
	rep := &Report{}
	p.reportInto(rep, p.lines, seconds, threshold)
	return rep
}

// ReportAtInto is ReportAt without the allocation: it rebuilds dst in
// place, reusing dst.Lines' backing array. Streaming consumers that
// snapshot every poll interval use it to keep the snapshot path free of
// per-call garbage; the dst contents are overwritten wholesale.
func (p *Pipeline) ReportAtInto(dst *Report, seconds, threshold float64) {
	p.reportInto(dst, p.lines, seconds, threshold)
}

// EpochReportAt computes a report over only the records of the detection
// epoch in progress, with the observation window measured from the
// epoch's start. It is the windowed counterpart of ReportAt.
func (p *Pipeline) EpochReportAt(seconds, threshold float64) *Report {
	rep := &Report{}
	p.reportInto(rep, p.elines, seconds-p.epochStart, threshold)
	return rep
}

// EpochReportAtInto is EpochReportAt with the buffer reuse of
// ReportAtInto.
func (p *Pipeline) EpochReportAtInto(dst *Report, seconds, threshold float64) {
	p.reportInto(dst, p.elines, seconds-p.epochStart, threshold)
}

func (p *Pipeline) reportInto(rep *Report, lines map[isa.SourceLoc]*lineStat, seconds, threshold float64) {
	buildReport(rep, p.cfg, lines, seconds, threshold)
}

// buildReport computes a report from per-line aggregates. It is shared
// between the live Pipeline and the serializable PipeState, which is
// what guarantees a report rebuilt from a cached snapshot is
// byte-identical to the one the pipeline would have produced.
func buildReport(rep *Report, cfg Config, lines map[isa.SourceLoc]*lineStat, seconds, threshold float64) {
	rep.Lines = rep.Lines[:0]
	rep.Seconds = seconds
	if seconds <= 0 {
		return
	}
	for loc, ls := range lines {
		rate := float64(ls.records) * float64(cfg.SAV) / seconds
		if rate < threshold {
			continue
		}
		rl := ReportLine{Loc: loc, Rate: rate, TS: ls.ts, FS: ls.fs}
		events := ls.ts + ls.fs
		switch {
		case events < uint64(cfg.MinClassifyEvents),
			float64(events) < MinModelFraction*float64(ls.records+ls.badAddr):
			rl.Kind = Unknown
		case ls.ts >= ls.fs:
			rl.Kind = TrueSharing
		default:
			rl.Kind = FalseSharing
		}
		rep.Lines = append(rep.Lines, rl)
	}
	// The comparator matches the historical sort.Slice exactly — rate
	// descending, then the rendered location string — so reports stay
	// byte-identical; slices.SortFunc spares the closure and interface
	// boxing of sort.Slice, and locations are distinct map keys, so the
	// order is total and unique.
	slices.SortFunc(rep.Lines, func(a, b ReportLine) int {
		if a.Rate != b.Rate {
			if a.Rate > b.Rate {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Loc.String(), b.Loc.String())
	})
}

// Report uses the configured default threshold.
func (p *Pipeline) Report(seconds float64) *Report {
	return p.ReportAt(seconds, p.cfg.RateThreshold)
}

// RepairCandidates implements the §4.4 trigger: when the aggregate HITM
// rate of false-sharing-leaning lines (more FS than TS model events)
// exceeds the repair threshold, it returns the PCs involved in false
// sharing, most active first. True-sharing lines never trigger repair —
// "avoiding fruitless attempts to automatically repair true sharing"
// (§7.1) — unless Config.RepairAllContention widens the trigger for a
// speculative probe run. The trigger reads the epoch-scoped counters
// over the epoch's own window, so after a repair (and BeginEpoch) it
// re-arms on fresh evidence only; in epoch 0 this is identical to the
// cumulative rate.
func (p *Pipeline) RepairCandidates(seconds float64) ([]mem.Addr, bool) {
	window := seconds - p.epochStart
	if window <= 0 {
		return nil, false
	}
	var fsRecords uint64
	for _, ls := range p.elines {
		if p.cfg.RepairAllContention || ls.fs > ls.ts {
			fsRecords += ls.records
		}
	}
	rate := float64(fsRecords) * float64(p.cfg.SAV) / window
	if rate < p.cfg.RepairRateThreshold {
		return nil, false
	}
	byPC := p.efsByPC
	if p.cfg.RepairAllContention {
		byPC = p.ePCs
	}
	// No classified PCs yet — the record rate alone cleared the bar
	// (possible in probe mode, where every contended line counts) but
	// there is nothing to hand the repair analysis. Hold fire until the
	// cache line model has attributed events to instructions.
	if len(byPC) == 0 {
		return nil, false
	}
	pcs := make([]mem.Addr, 0, len(byPC))
	for pc := range byPC {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		if byPC[pcs[i]] != byPC[pcs[j]] {
			return byPC[pcs[i]] > byPC[pcs[j]]
		}
		return pcs[i] < pcs[j]
	})
	return pcs, true
}

// Render formats the report the way the detector prints it at application
// exit (§4.3): one line per location with its rate and sharing breakdown.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "contention report (%.1f ms observed)\n", r.Seconds*1e3)
	if len(r.Lines) == 0 {
		b.WriteString("  no contention above threshold\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-28s %12s %8s %8s  %s\n", "location", "HITM/s", "TS", "FS", "kind")
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "  %-28s %12.0f %8d %8d  %s\n", l.Loc, l.Rate, l.TS, l.FS, l.Kind)
	}
	return b.String()
}
