package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/texttab"
)

// Figure 3 (§3.1): a characterization of HITM record accuracy across 160
// two-thread assembly test cases — true/false sharing crossed with
// read-write/write-write access patterns, loop bodies varying from a
// single memory operation to dozens of filler instructions. Sampling is
// disabled (SAV=1) as in the paper.

// CharCategory names one quadrant of Figure 3.
type CharCategory string

// The four categories.
const (
	TSRW CharCategory = "TSRW"
	FSRW CharCategory = "FSRW"
	TSWW CharCategory = "TSWW"
	FSWW CharCategory = "FSWW"
)

// CharCase is the outcome of one test case.
type CharCase struct {
	Category CharCategory
	Variant  int
	// Fractions of records with the correct data address, the exact PC,
	// and an exact-or-adjacent PC.
	AddrOK, PCExact, PCAdjacent float64
	Records                     int
}

// CharSummary aggregates one category.
type CharSummary struct {
	Category                    CharCategory
	Cases                       int
	AddrOK, PCExact, PCAdjacent float64 // means over cases
}

// charSink collects raw PEBS records.
type charSink struct{ recs []pebs.Record }

func (s *charSink) Overflow(core int, recs []pebs.Record) uint64 {
	s.recs = append(s.recs, recs...)
	return 0
}

// buildCharCase assembles one two-thread test: thread 0 always stores;
// thread 1 loads (RW) or stores (WW); same address (TS) or same line at
// a different offset (FS). variant controls the filler instructions that
// move the contending ops around in the binary.
func buildCharCase(cat CharCategory, variant int) (*isa.Program, []machine.ThreadSpec, map[mem.Addr]bool, map[mem.Addr]bool) {
	iters := int64(12_000)
	b := isa.NewBuilder().At("chartest.s", 10)
	filler := func(n int) {
		for i := 0; i < n; i++ {
			b.Line(20 + i)
			switch i % 3 {
			case 0:
				b.AluI(isa.Add, 22, 22, int64(i)+1)
			case 1:
				b.AluI(isa.Xor, 23, 23, 5)
			case 2:
				b.AluI(isa.Mul, 24, 24, 3)
			}
		}
	}
	// Thread 0: the writer.
	b.Func("writer")
	b.Li(20, 0)
	b.Label("w_loop").Line(12)
	b.Store(0, 0, 21, 8)
	filler(variant % 40)
	b.AddI(20, 20, 1)
	b.BranchI(isa.Lt, 20, iters, "w_loop")
	b.Halt()
	// Thread 1: reader or second writer.
	b.Func("peer")
	b.Li(20, 0)
	b.Label("p_loop").Line(14)
	if cat == TSRW || cat == FSRW {
		b.Load(25, 1, 0, 8)
	} else {
		b.Store(1, 0, 26, 8)
	}
	filler((variant * 7) % 40)
	b.AddI(20, 20, 1)
	b.BranchI(isa.Lt, 20, iters, "p_loop")
	b.Halt()
	p := b.Build()

	base := mem.HeapBase + 0x100
	peerAddr := base
	if cat == FSRW || cat == FSWW {
		peerAddr = base + 16
	}
	specs := []machine.ThreadSpec{
		{Entry: 0, Regs: map[isa.Reg]int64{0: int64(base)}},
		{Entry: p.Funcs[1].Start, Regs: map[isa.Reg]int64{1: int64(peerAddr)}},
	}
	trueAddrs := map[mem.Addr]bool{base: true, peerAddr: true}
	truePCs := map[mem.Addr]bool{}
	for i := range p.Instrs {
		if p.Instrs[i].IsMem() {
			truePCs[p.Instrs[i].PC] = true
		}
	}
	return p, specs, trueAddrs, truePCs
}

// charVariants is the per-category case count of the Figure 3
// characterization.
const charVariants = 40

// charCategories lists the quadrants in evaluation order.
var charCategories = []CharCategory{TSRW, FSRW, TSWW, FSWW}

// fig3Spec declares Figure 3 to the experiment registry: 160
// characterization cases, assembled into the accuracy-by-category
// table.
var fig3Spec = &Spec{
	Name:      "fig3",
	Artifacts: []string{"fig3"},
	Assemble: func(Config) (*Rendered, error) {
		_, sums, err := RunFigure3()
		if err != nil {
			return nil, err
		}
		m := make(map[string]float64, len(sums))
		for _, s := range sums {
			m[string(s.Category)+"_addr_pct"] = 100 * s.AddrOK
		}
		return &Rendered{
			Artifacts: []Artifact{{Name: "fig3", Text: RenderFigure3(sums)}},
			Metrics:   m,
		}, nil
	},
}

// RunFigure3 executes the 160 test cases and returns per-case data plus
// per-category summaries. The cases are independent two-thread machines
// and run concurrently on the experiment pool.
func RunFigure3() ([]CharCase, []CharSummary, error) {
	cats := charCategories
	const variants = charVariants
	cases := make([]CharCase, len(cats)*variants)
	err := forEach(len(cases), func(i int) error {
		cat, variant := cats[i/variants], i%variants
		c, err := runCharCase(cat, variant)
		if err != nil {
			return fmt.Errorf("case %s/%d: %w", cat, variant, err)
		}
		cases[i] = c
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var sums []CharSummary
	for _, cat := range charCategories {
		s := CharSummary{Category: cat}
		for _, c := range cases {
			if c.Category != cat {
				continue
			}
			s.Cases++
			s.AddrOK += c.AddrOK
			s.PCExact += c.PCExact
			s.PCAdjacent += c.PCAdjacent
		}
		if s.Cases > 0 {
			s.AddrOK /= float64(s.Cases)
			s.PCExact /= float64(s.Cases)
			s.PCAdjacent /= float64(s.Cases)
		}
		sums = append(sums, s)
	}
	return cases, sums, nil
}

var charSeeds = map[CharCategory]int64{TSRW: 1, FSRW: 2, TSWW: 3, FSWW: 4}

// charJob is one characterization case: the 160 cases are
// deterministic in (category, variant) and the PEBS configuration,
// like every other simulation of the evaluation.
func charJob(cat CharCategory, variant int) (Key, func() (CharCase, error)) {
	pcfg := pebs.Config{SAV: 1, BufferCap: 256, AssistCycles: 0,
		Seed: int64(variant)*41 + charSeeds[cat]}
	key := Key{
		Tool: "char", Workload: string(cat), Variant: strconv.Itoa(variant),
		SAV: pcfg.SAV, Seed: pcfg.Seed,
		Config: fp(pcfg),
	}
	return key, func() (CharCase, error) { return simCharCase(cat, variant, pcfg) }
}

// runCharCase executes one characterization case, memoized.
func runCharCase(cat CharCategory, variant int) (CharCase, error) {
	return recall(charJob(cat, variant))
}

func simCharCase(cat CharCategory, variant int, pcfg pebs.Config) (CharCase, error) {
	prog, specs, trueAddrs, truePCs := buildCharCase(cat, variant)
	vm := mem.StandardMap(prog.AppTextSize(), prog.LibTextSize(), 1<<20, 2)
	sink := &charSink{}
	pmu := pebs.New(pcfg, 4, prog, vm, sink)
	m := machine.New(prog, machine.Config{Cores: 2, Probe: pmu}, specs)
	if _, err := m.Run(); err != nil {
		return CharCase{}, err
	}
	pmu.Drain()

	c := CharCase{Category: cat, Variant: variant, Records: len(sink.recs)}
	if len(sink.recs) == 0 {
		return c, fmt.Errorf("no HITM records")
	}
	var addrOK, pcExact, pcAdj int
	for _, r := range sink.recs {
		if trueAddrs[r.Addr] {
			addrOK++
		}
		if truePCs[r.PC] {
			pcExact++
			pcAdj++
		} else if truePCs[r.PC-mem.InstrBytes] {
			pcAdj++ // one instruction of skid past a contending op
		}
	}
	n := float64(len(sink.recs))
	c.AddrOK = float64(addrOK) / n
	c.PCExact = float64(pcExact) / n
	c.PCAdjacent = float64(pcAdj) / n
	return c, nil
}

// RenderFigure3 formats the category summaries.
func RenderFigure3(sums []CharSummary) string {
	t := texttab.New("Figure 3: HITM record accuracy by category (means over 40 cases each)",
		"category", "% correct data addr", "% exact PC", "% adjacent PC")
	for _, s := range sums {
		t.Row(string(s.Category),
			fmt.Sprintf("%.1f", 100*s.AddrOK),
			fmt.Sprintf("%.1f", 100*s.PCExact),
			fmt.Sprintf("%.1f", 100*s.PCAdjacent))
	}
	return t.Render()
}
