package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the serializable face of the detection pipeline: a
// PipeState captures the cumulative per-line aggregates a Pipeline has
// accumulated, in a flat, export-friendly shape (plain structs, sorted
// slices, no maps of pointers), and can rebuild the detector's reports
// at any rate threshold without the pipeline — the property behind the
// Figure 9 offline re-thresholding, and the reason the experiment
// harness keeps snapshots instead of live pipelines.

// LineAggregate is one source line's accumulated evidence.
type LineAggregate struct {
	Loc     isa.SourceLoc
	Records uint64 // HITM records attributed to the line
	BadAddr uint64 // records whose data address failed the outlier filter
	TS, FS  uint64 // cache-line-model event counts
}

// PCCount is one program counter's false-sharing model event count.
type PCCount struct {
	PC    mem.Addr
	Count uint64
}

// PipeState is a self-contained snapshot of a pipeline's cumulative
// aggregates. The slices are sorted (lines by location, PCs ascending)
// so that serialized snapshots are deterministic byte-for-byte.
type PipeState struct {
	Config Config
	Lines  []LineAggregate
	FSByPC []PCCount
	Filter FilterStats
	Cycles uint64 // detector CPU cycles consumed (Figure 12)
}

// State snapshots the pipeline's cumulative aggregates. The snapshot is
// independent of the pipeline: later Feeds do not alter it.
func (p *Pipeline) State() *PipeState {
	st := &PipeState{
		Config: p.cfg,
		Lines:  make([]LineAggregate, 0, len(p.lines)),
		FSByPC: make([]PCCount, 0, len(p.fsByPC)),
		Filter: p.filter,
		Cycles: p.cycles,
	}
	for loc, ls := range p.lines {
		st.Lines = append(st.Lines, LineAggregate{
			Loc: loc, Records: ls.records, BadAddr: ls.badAddr, TS: ls.ts, FS: ls.fs,
		})
	}
	slices.SortFunc(st.Lines, func(a, b LineAggregate) int {
		if c := cmp.Compare(a.Loc.File, b.Loc.File); c != 0 {
			return c
		}
		return cmp.Compare(a.Loc.Line, b.Loc.Line)
	})
	for pc, n := range p.fsByPC {
		st.FSByPC = append(st.FSByPC, PCCount{PC: pc, Count: n})
	}
	slices.SortFunc(st.FSByPC, func(a, b PCCount) int { return cmp.Compare(a.PC, b.PC) })
	return st
}

// ReportAt computes the report for an observation window of the given
// duration at an explicit rate threshold — Pipeline.ReportAt over the
// snapshot, byte-identical to what the snapshotted pipeline would
// render.
func (st *PipeState) ReportAt(seconds, threshold float64) *Report {
	lines := make(map[isa.SourceLoc]*lineStat, len(st.Lines))
	for _, l := range st.Lines {
		lines[l.Loc] = &lineStat{records: l.Records, badAddr: l.BadAddr, ts: l.TS, fs: l.FS}
	}
	rep := &Report{}
	buildReport(rep, st.Config, lines, seconds, threshold)
	return rep
}

// Report uses the snapshot's configured default threshold.
func (st *PipeState) Report(seconds float64) *Report {
	return st.ReportAt(seconds, st.Config.RateThreshold)
}

// DetectorCycles returns the CPU time the snapshotted detector had
// consumed.
func (st *PipeState) DetectorCycles() uint64 { return st.Cycles }

// ModelEntry is one line of the Figure 5 cache-line model: the byte
// bitmap and type of the previous access.
type ModelEntry struct {
	Line  mem.Line
	Bits  uint64
	Write bool
	Valid bool
}

// FullState extends PipeState with everything a running pipeline needs
// to resume mid-stream — the cache-line model, the timestamp window,
// and the epoch-scoped trigger counters — so a restored detector
// processes the remaining record stream exactly as the captured one
// would have. Like PipeState, every slice is sorted, so serialized
// snapshots are deterministic byte-for-byte. The PC remap is
// deliberately absent: it is derived state the session reinstalls from
// the restored repair controller.
type FullState struct {
	Pipe       PipeState
	Model      []ModelEntry
	FirstTS    uint64
	LastTS     uint64
	Epoch      int
	EpochStart float64
	ELines     []LineAggregate
	EFSByPC    []PCCount
	// EPCs mirrors the all-contention probe counters (nil unless the
	// pipeline runs with Config.RepairAllContention).
	EPCs []PCCount
}

func sortLineAggregates(ls []LineAggregate) {
	slices.SortFunc(ls, func(a, b LineAggregate) int {
		if c := cmp.Compare(a.Loc.File, b.Loc.File); c != 0 {
			return c
		}
		return cmp.Compare(a.Loc.Line, b.Loc.Line)
	})
}

// FullState snapshots the live pipeline.
func (p *Pipeline) FullState() *FullState {
	st := &FullState{
		Pipe:       *p.State(),
		Model:      make([]ModelEntry, 0, len(p.model)),
		FirstTS:    p.firstTS,
		LastTS:     p.lastTS,
		Epoch:      p.epoch,
		EpochStart: p.epochStart,
		ELines:     make([]LineAggregate, 0, len(p.elines)),
		EFSByPC:    make([]PCCount, 0, len(p.efsByPC)),
	}
	for line, la := range p.model {
		st.Model = append(st.Model, ModelEntry{Line: line, Bits: la.bits, Write: la.write, Valid: la.valid})
	}
	slices.SortFunc(st.Model, func(a, b ModelEntry) int { return cmp.Compare(a.Line, b.Line) })
	for loc, ls := range p.elines {
		st.ELines = append(st.ELines, LineAggregate{
			Loc: loc, Records: ls.records, BadAddr: ls.badAddr, TS: ls.ts, FS: ls.fs,
		})
	}
	sortLineAggregates(st.ELines)
	for pc, n := range p.efsByPC {
		st.EFSByPC = append(st.EFSByPC, PCCount{PC: pc, Count: n})
	}
	slices.SortFunc(st.EFSByPC, func(a, b PCCount) int { return cmp.Compare(a.PC, b.PC) })
	if p.ePCs != nil {
		st.EPCs = make([]PCCount, 0, len(p.ePCs))
		for pc, n := range p.ePCs {
			st.EPCs = append(st.EPCs, PCCount{PC: pc, Count: n})
		}
		slices.SortFunc(st.EPCs, func(a, b PCCount) int { return cmp.Compare(a.PC, b.PC) })
	}
	return st
}

// RestoreFullState overwrites a pipeline — freshly built with the same
// config, memory map and program — with the snapshot.
func (p *Pipeline) RestoreFullState(st *FullState) error {
	if p.cfg != st.Pipe.Config {
		return fmt.Errorf("core: snapshot config %+v does not match pipeline config %+v", st.Pipe.Config, p.cfg)
	}
	p.lines = make(map[isa.SourceLoc]*lineStat, len(st.Pipe.Lines))
	for _, l := range st.Pipe.Lines {
		p.lines[l.Loc] = &lineStat{records: l.Records, badAddr: l.BadAddr, ts: l.TS, fs: l.FS}
	}
	p.fsByPC = make(map[mem.Addr]uint64, len(st.Pipe.FSByPC))
	for _, pc := range st.Pipe.FSByPC {
		p.fsByPC[pc.PC] = pc.Count
	}
	p.filter = st.Pipe.Filter
	p.cycles = st.Pipe.Cycles
	p.model = make(map[mem.Line]*lastAccess, len(st.Model))
	for _, e := range st.Model {
		p.model[e.Line] = &lastAccess{bits: e.Bits, write: e.Write, valid: e.Valid}
	}
	p.firstTS = st.FirstTS
	p.lastTS = st.LastTS
	p.epoch = st.Epoch
	p.epochStart = st.EpochStart
	p.elines = make(map[isa.SourceLoc]*lineStat, len(st.ELines))
	for _, l := range st.ELines {
		p.elines[l.Loc] = &lineStat{records: l.Records, badAddr: l.BadAddr, ts: l.TS, fs: l.FS}
	}
	p.efsByPC = make(map[mem.Addr]uint64, len(st.EFSByPC))
	for _, pc := range st.EFSByPC {
		p.efsByPC[pc.PC] = pc.Count
	}
	if p.cfg.RepairAllContention {
		p.ePCs = make(map[mem.Addr]uint64, len(st.EPCs))
		for _, pc := range st.EPCs {
			p.ePCs[pc.PC] = pc.Count
		}
	}
	return nil
}
