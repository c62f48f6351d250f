package repair

import (
	"errors"
	"reflect"
	"sort"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Controller drives online repair of one process: it attaches to the
// machine (as Pin attaches to a running process, §6), applies the SSB
// rewrite when LASERDETECT hands over contending PCs, extends the rewrite
// when later detection epochs surface new contention, and falls back to
// conservative instrumentation if a speculative alias check fires at
// runtime (§5.3).
type Controller struct {
	cfg  Config
	m    *machine.Machine
	orig *isa.Program

	// cand is the repair strategy in force; every analysis (install,
	// extend, restore) routes through it. Nil until the first install;
	// Apply installs the paper's SSB rewrite.
	cand Candidate

	applied      bool
	conservative bool
	// plans and fnPCs hold the per-function analysis results accumulated
	// across epochs; the installed program is always the original program
	// rewritten under the merge of every plan.
	plans     map[string]*Plan
	fnPCs     map[string][]mem.Addr
	revToOrig []int // installed index → original index
	gen       int   // program hot-swap count
}

// NewController prepares a controller for the machine's current program.
func NewController(cfg Config, m *machine.Machine) *Controller {
	return &Controller{cfg: cfg, m: m, orig: m.Program()}
}

// Applied reports whether a rewrite is currently installed.
func (c *Controller) Applied() bool { return c.applied }

// Conservative reports whether the alias-analysis-disabled fallback is
// installed.
func (c *Controller) Conservative() bool { return c.conservative }

// Generation counts program hot-swaps (installs, conservative
// refinements, undos). A monitoring session compares generations to know
// when to refresh its PC remap.
func (c *Controller) Generation() int { return c.gen }

// Candidate returns the name of the installed repair strategy, or the
// empty string when no rewrite is installed.
func (c *Controller) Candidate() string {
	if !c.applied || c.cand == nil {
		return ""
	}
	return c.cand.Name()
}

// Apply analyzes the contending PCs and, if the plan is profitable,
// hot-swaps the instrumented program into the machine. The first call
// analyzes the PCs as one region under the default SSB rewrite, exactly
// as the one-shot system does. Once a rewrite is installed, further
// calls extend it: PCs already covered are ignored, and genuinely new
// contention re-analyzes the affected function over the union of its
// old and new PCs — the multi-epoch path. A call that adds nothing is a
// no-op (check Generation to distinguish it from a fresh install).
func (c *Controller) Apply(pcs []mem.Addr) error {
	if c.applied {
		return c.extend(pcs)
	}
	p, err := c.Prepare(DefaultCandidate(), pcs)
	if err != nil {
		return err
	}
	return c.ApplyPrepared(p)
}

// Prepared is a candidate's first install, analyzed but not yet
// applied: the plan it rewrites the program under, and the alias-off
// plan OnAliasMiss would refine that rewrite to. Two prepared installs
// with equal plans simulate identically from the same machine state,
// which is what lets a trial race run one fork for both. The rewrite
// itself runs on the first apply and is kept, so every later apply of
// the same value installs the same program; programs are read-only
// once built and each machine decodes its own ops, so controllers of
// different machines may share it.
type Prepared struct {
	cand     Candidate
	orig     *isa.Program
	pcs      []mem.Addr
	plan     *Plan
	aliasOff *Plan // nil when the alias-off analysis refuses (an alias miss undoes the repair)

	prog     *isa.Program
	fwd, rev []int
}

// SamePlans reports whether p and q install the same rewrite and refine
// it the same way on an alias miss.
func (p *Prepared) SamePlans(q *Prepared) bool {
	return reflect.DeepEqual(p.plan, q.plan) && reflect.DeepEqual(p.aliasOff, q.aliasOff)
}

// Prepare runs cand's first-install analysis without touching the
// controller or the machine: it returns the plan and the alias-off
// plan, or the analysis error when cand refuses the region (ErrDeclined
// for the deliberate no-op).
func (c *Controller) Prepare(cand Candidate, pcs []mem.Addr) (*Prepared, error) {
	plan, err := cand.Analyze(c.cfg, c.orig, pcs)
	if err != nil {
		return nil, err
	}
	cfg := c.cfg
	cfg.SpeculativeAliasing = false
	aliasOff, err := cand.Analyze(cfg, c.orig, pcs)
	if err != nil {
		aliasOff = nil
	}
	return &Prepared{cand: cand, orig: c.orig, pcs: append([]mem.Addr(nil), pcs...),
		plan: plan, aliasOff: aliasOff}, nil
}

// ApplyPrepared installs a prepared first install and records its
// candidate as the strategy every later extension and restore reuses.
// The program is rewritten on the value's first apply only, so applies
// of one value must not run concurrently.
func (c *Controller) ApplyPrepared(p *Prepared) error {
	if c.applied {
		return errors.New("repair: prepared install over an installed rewrite")
	}
	if p.orig != c.orig {
		return errors.New("repair: install prepared for another program")
	}
	if p.prog == nil {
		p.prog, p.fwd, p.rev = Rewrite(c.orig, p.plan)
	}
	c.cand = p.cand
	c.plans = map[string]*Plan{p.plan.Fn.Name: p.plan}
	c.fnPCs = map[string][]mem.Addr{p.plan.Fn.Name: append([]mem.Addr(nil), p.pcs...)}
	c.swap(p.prog, p.fwd, p.rev)
	c.applied = true
	return nil
}

// extend grows an installed rewrite with PCs from a later detection
// epoch. Each affected function is re-analyzed over the union of its
// accumulated PCs; functions whose candidate set did not grow are left
// alone. The error of the first function that fails analysis is
// returned (the installed rewrite stays in place either way).
func (c *Controller) extend(pcs []mem.Addr) error {
	cfg := c.cfg
	if c.conservative {
		cfg.SpeculativeAliasing = false
	}
	// Analyze every affected function first; accumulated state is only
	// committed once the whole extension is known to be sound, so a
	// refusal leaves the installed rewrite and its bookkeeping intact.
	newPlans := map[string]*Plan{}
	newPCs := map[string][]mem.Addr{}
	for _, g := range groupByFunc(c.orig, pcs) {
		union := unionPCs(c.fnPCs[g.fn.Name], g.pcs)
		if len(union) == len(c.fnPCs[g.fn.Name]) {
			continue
		}
		plan, err := c.cand.Analyze(cfg, c.orig, union)
		if err != nil {
			return err
		}
		newPlans[plan.Fn.Name] = plan
		newPCs[plan.Fn.Name] = union
	}
	if len(newPlans) == 0 {
		return nil
	}
	for name, plan := range newPlans {
		c.plans[name] = plan
		c.fnPCs[name] = newPCs[name]
	}
	c.install()
	return nil
}

// install rewrites the original program under the merged plan and
// hot-swaps it in.
func (c *Controller) install() {
	inst, fwd, rev := Rewrite(c.orig, MergePlans(c.orderedPlans()))
	c.swap(inst, fwd, rev)
}

// swap hot-swaps a rewritten program and its maps in, remapping thread
// state from the currently installed program through its reverse map.
func (c *Controller) swap(inst *isa.Program, fwd, rev []int) {
	if prevRev := c.revToOrig; prevRev != nil {
		c.m.SetProgram(inst, func(i int) int { return fwd[prevRev[i]] })
	} else {
		c.m.SetProgram(inst, func(i int) int { return fwd[i] })
	}
	c.revToOrig = rev
	c.gen++
}

// orderedPlans returns the accumulated plans sorted by function start,
// so the merged rewrite is deterministic.
func (c *Controller) orderedPlans() []*Plan {
	out := make([]*Plan, 0, len(c.plans))
	for _, p := range c.plans {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fn.Start < out[j].Fn.Start })
	return out
}

// PCRemap returns the currently installed (rewritten) program and its
// reverse index, which translate every PC of that program back to the
// PC of the original instruction it descends from; both are nil when
// the original program is installed. Both are read-only once
// installed. LASERDETECT threads them into its pipeline so that
// post-repair HITM records keep attributing to the original binary —
// the remapping that lets detection re-arm for another epoch instead of
// freezing at the first repair.
func (c *Controller) PCRemap() (cur *isa.Program, revToOrig []int) {
	if !c.applied {
		return nil, nil
	}
	return c.m.Program(), c.revToOrig
}

// OnAliasMiss is wired into machine.Config.OnAliasMiss: a misspeculation
// flushes locally (the machine already did) and every instrumented
// function is re-analyzed with speculative alias analysis disabled.
func (c *Controller) OnAliasMiss(tid int, pc mem.Addr) {
	if !c.applied || c.conservative {
		return
	}
	cfg := c.cfg
	cfg.SpeculativeAliasing = false
	plans := make(map[string]*Plan, len(c.plans))
	for name, pcs := range c.fnPCs {
		plan, err := c.cand.Analyze(cfg, c.orig, pcs)
		if err != nil {
			// The conservative plan can be unprofitable; undo the repair.
			c.undo()
			return
		}
		plans[name] = plan
	}
	c.plans = plans
	c.conservative = true
	c.install()
}

// undo restores the original program.
func (c *Controller) undo() {
	prevRev := c.revToOrig
	c.m.SetProgram(c.orig, func(i int) int { return prevRev[i] })
	c.applied = false
	c.conservative = false
	c.cand = nil
	c.revToOrig = nil
	c.plans = nil
	c.fnPCs = nil
	c.gen++
}

// fnGroup is the slice of candidate PCs attributed to one function.
type fnGroup struct {
	fn  isa.Func
	pcs []mem.Addr
}

// groupByFunc buckets candidate PCs by the function containing the
// memory instruction each resolves to (with the same one-instruction
// skid tolerance as Analyze). PCs resolving to no memory instruction
// are dropped. Groups come out in first-appearance order.
func groupByFunc(prog *isa.Program, pcs []mem.Addr) []fnGroup {
	byName := map[string]int{}
	var groups []fnGroup
	for _, pc := range pcs {
		idxs := contendingIndices(prog, []mem.Addr{pc})
		if len(idxs) == 0 {
			continue
		}
		fn, ok := prog.FuncAt(idxs[0])
		if !ok {
			continue
		}
		gi, seen := byName[fn.Name]
		if !seen {
			gi = len(groups)
			byName[fn.Name] = gi
			groups = append(groups, fnGroup{fn: fn})
		}
		groups[gi].pcs = append(groups[gi].pcs, pc)
	}
	return groups
}

// unionPCs appends the PCs of add not already present in base,
// preserving order.
func unionPCs(base, add []mem.Addr) []mem.Addr {
	seen := make(map[mem.Addr]bool, len(base))
	out := append([]mem.Addr(nil), base...)
	for _, pc := range base {
		seen[pc] = true
	}
	for _, pc := range add {
		if !seen[pc] {
			seen[pc] = true
			out = append(out, pc)
		}
	}
	return out
}
