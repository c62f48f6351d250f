// Package repair implements LASERREPAIR (§5 of the paper): given the PCs
// LASERDETECT identifies as falsely sharing, it statically analyzes the
// control-flow graph around them, decides whether software-store-buffer
// repair is profitable, and rewrites the program so the contending region
// runs through the SSB with flushes placed at post-dominators — the moral
// equivalent of the paper's Pin-based dynamic binary rewriting.
package repair

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Config tunes the static analysis.
type Config struct {
	// SpeculativeAliasing enables the §5.3 alias analysis that lets
	// loads with provably-disjoint base registers skip the SSB, guarded
	// by inserted alias checks.
	SpeculativeAliasing bool
}

// MinStoreFlushRatio is the profitability bar of §5.3/§5.4: if the
// estimated dynamic ratio of SSB stores to flushes falls below it — e.g.
// a contending store wrapped in a small critical section — the repair
// is not attempted.
const MinStoreFlushRatio = 4

// LoopAmplification estimates how many iterations a loop body executes
// per flush placed at its exit.
const LoopAmplification = 16

// DefaultConfig returns the evaluation settings.
func DefaultConfig() Config {
	return Config{SpeculativeAliasing: true}
}

// Errors reported by Analyze when repair is refused.
var (
	// ErrNotProfitable: the stores-to-flushes estimate is too low.
	ErrNotProfitable = errors.New("repair: estimated stores per flush below threshold")
	// ErrComplexRegion: the contending region calls into other functions,
	// which the assembly-level analysis cannot model precisely (the
	// lu_ncb case in §7.4.2).
	ErrComplexRegion = errors.New("repair: contending region too complex to analyze")
	// ErrNoCandidates: none of the provided PCs maps to a memory
	// instruction in the program.
	ErrNoCandidates = errors.New("repair: no contending memory instructions found")
)

// Plan is the result of the static analysis for one function: which
// instructions get SSB treatment, where flushes go, and which loads are
// speculatively exempted.
type Plan struct {
	Fn isa.Func
	// Instrument marks instruction indices whose loads/stores move to
	// the SSB.
	Instrument map[int]bool
	// AliasExempt marks load indices that skip the SSB; each is guarded
	// by an alias check.
	AliasExempt map[int]bool
	// CheckBefore marks the indices that receive the inserted alias
	// check: one per base-register def per block ("multiple uses of the
	// same def require only one check", §5.3).
	CheckBefore map[int]bool
	// FlushBefore lists instruction indices that receive an SSBFlush
	// immediately before them.
	FlushBefore []int
	// EstStoresPerFlush is the profitability estimate.
	EstStoresPerFlush float64
}

// flushPlacement selects which of the legal flush blocks the plan uses.
// Every legal block post-dominates the whole contending region, so any
// choice is sound; the choice trades flush frequency against SSB
// residency (how long stores stay buffered before becoming visible).
type flushPlacement int

const (
	// flushNearest: the block every other candidate post-dominates — the
	// first point past the contending region. Today's behavior, and the
	// paper's (§5.3): flush as soon as the region is left.
	flushNearest flushPlacement = iota
	// flushFarthest: the block that post-dominates every other candidate
	// — the last legal point. Stores batch in the SSB across the larger
	// region and become visible in one reordered burst, the
	// access-reordering candidate's plan.
	flushFarthest
)

// Analyze runs the §5.3 analysis: locate the basic blocks containing the
// contending PCs, extend to the reachable subgraph not dominated by a
// flush, choose flush points that post-dominate the modified blocks, run
// speculative alias analysis, and estimate profitability.
func Analyze(cfg Config, prog *isa.Program, pcs []mem.Addr) (*Plan, error) {
	return analyze(cfg, prog, pcs, flushNearest)
}

func analyze(cfg Config, prog *isa.Program, pcs []mem.Addr, place flushPlacement) (*Plan, error) {
	idxs := contendingIndices(prog, pcs)
	if len(idxs) == 0 {
		return nil, ErrNoCandidates
	}
	fn, ok := prog.FuncAt(idxs[0])
	if !ok {
		return nil, ErrNoCandidates
	}
	for _, i := range idxs {
		f, ok := prog.FuncAt(i)
		if !ok || f.Name != fn.Name {
			// Contention spans functions: give up rather than reason
			// about interprocedural store buffering.
			return nil, fmt.Errorf("%w: contending PCs span functions", ErrComplexRegion)
		}
	}
	g := isa.BuildCFG(prog, fn)
	contending := map[int]bool{}
	for _, i := range idxs {
		contending[g.BlockOf(i)] = true
	}
	conBlocks := keys(contending)

	// The modified region: blocks reachable from the contending blocks.
	reach := g.Reachable(conBlocks)

	// Flush candidates: blocks that post-dominate every contending block
	// and from which no contending block is reachable (we have left the
	// contending region for good).
	pdom := g.PostDominators()
	var candidates []int
	for b := range reach {
		if contending[b] {
			continue
		}
		all := true
		for _, cb := range conBlocks {
			if !pdom[cb][b] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		back := g.Reachable([]int{b})
		escapes := true
		for _, cb := range conBlocks {
			if back[cb] {
				escapes = false
				break
			}
		}
		if escapes {
			candidates = append(candidates, b)
		}
	}
	// Nearest candidate: the one every other candidate post-dominates.
	// Farthest: the one that post-dominates every other candidate.
	sort.Ints(candidates)
	flushBlock := -1
	for _, c := range candidates {
		best := true
		for _, o := range candidates {
			if o == c {
				continue
			}
			var ok bool
			switch place {
			case flushFarthest:
				ok = pdom[o][c]
			default:
				ok = pdom[c][o]
			}
			if !ok {
				best = false
				break
			}
		}
		if best {
			flushBlock = c
			break
		}
	}

	// Modified region = reachable blocks not dominated by the flush.
	dom := g.Dominators()
	region := map[int]bool{}
	for b := range reach {
		if flushBlock >= 0 && b != flushBlock && dom[b][flushBlock] {
			continue
		}
		if b == flushBlock {
			continue
		}
		region[b] = true
	}

	plan := &Plan{Fn: fn, Instrument: map[int]bool{}, AliasExempt: map[int]bool{},
		CheckBefore: map[int]bool{}}
	stores, fences := 0, 0
	storeBases := map[isa.Reg]bool{}
	for b := range region {
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			in := &prog.Instrs[i]
			if in.Op == isa.OpCall {
				// Callees may load locations we have buffered; the
				// paper's analysis operates on assembly and refuses
				// such regions.
				return nil, fmt.Errorf("%w: call inside contending region", ErrComplexRegion)
			}
			if in.Op == isa.OpStore && in.IsStore() {
				storeBases[in.Rs1] = true
			}
			if in.IsFence() {
				fences++
			}
		}
	}
	for _, b := range keys(region) {
		blk := g.Blocks[b]
		checked := map[isa.Reg]bool{}
		for i := blk.Start; i < blk.End; i++ {
			in := &prog.Instrs[i]
			switch in.Op {
			case isa.OpStore:
				plan.Instrument[i] = true
				stores++
			case isa.OpLoad:
				if cfg.SpeculativeAliasing && !storeBases[in.Rs1] {
					// §5.3: loads whose base register is unused by any
					// store are assumed not to alias; one inserted
					// check per def validates the speculation.
					plan.AliasExempt[i] = true
					if !checked[in.Rs1] {
						checked[in.Rs1] = true
						plan.CheckBefore[i] = true
					}
				} else {
					plan.Instrument[i] = true
				}
			}
		}
	}
	if stores == 0 {
		return nil, ErrNoCandidates
	}
	if flushBlock >= 0 {
		plan.FlushBefore = append(plan.FlushBefore, g.Blocks[flushBlock].Start)
	}

	// Profitability estimate (§5.3): fences inside the region force a
	// flush per dynamic occurrence; otherwise the flush at the region
	// exit amortizes over the loop.
	if fences > 0 {
		plan.EstStoresPerFlush = float64(stores) / float64(fences)
	} else {
		plan.EstStoresPerFlush = float64(stores) * LoopAmplification
	}
	if plan.EstStoresPerFlush < MinStoreFlushRatio {
		return nil, fmt.Errorf("%w: estimated %.1f stores/flush",
			ErrNotProfitable, plan.EstStoresPerFlush)
	}
	return plan, nil
}

func contendingIndices(prog *isa.Program, pcs []mem.Addr) []int {
	var idxs []int
	seen := map[int]bool{}
	for _, pc := range pcs {
		i, ok := prog.IndexOf(pc)
		if !ok {
			continue
		}
		// Tolerate one instruction of PEBS skid in either direction when
		// identifying the contending memory op.
		for _, j := range []int{i, i - 1} {
			if j >= 0 && j < len(prog.Instrs) && prog.Instrs[j].IsMem() && !seen[j] {
				seen[j] = true
				idxs = append(idxs, j)
				break
			}
		}
	}
	sort.Ints(idxs)
	return idxs
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
