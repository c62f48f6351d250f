package experiments

import (
	"fmt"

	"repro/internal/baseline/sheriff"
	"repro/internal/workload"
)

// The experiment registry: every experiment of the evaluation is a
// declarative Spec — Enumerate lists the memoized simulations (work
// units) the experiment needs, and Assemble renders its artifacts from
// the run memo. The executor (executor.go) owns the run loop end to
// end: it executes each selected spec's units on the worker pool
// (deduplicated across experiments by key), accounts per-unit memo
// hits and simulations, and only then asks the spec to assemble, so
// assembly itself simulates nothing. A runner and its unit list live
// in one file, and TestRegistryRoundTrip fails a spec whose Enumerate
// covers less than its Assemble consumes.

// WorkUnit is one memoized simulation of the evaluation.
type WorkUnit struct {
	Key   Key
	Label string
	// Run computes the unit through the run memo and reports whether
	// it simulated (false: the memo already held the result).
	Run func() (computed bool, err error)
}

// unit wraps a job (a key and its computation, see harness.go) as a
// work unit.
func unit[T any](key Key, compute func() (T, error)) WorkUnit {
	return WorkUnit{Key: key, Run: func() (bool, error) {
		_, computed, err := memoize(runMemo, key, compute)
		return computed, err
	}}
}

// Artifact is one named rendered output of an experiment.
type Artifact struct {
	// Name is the artifact selector laserbench -exp accepts ("tab1",
	// "fig10", ...).
	Name string
	// Text is the rendered table or figure.
	Text string
}

// Rendered is an experiment's assembled output: its artifacts in print
// order plus the headline scalar metrics the BENCH json records.
type Rendered struct {
	Artifacts []Artifact
	Metrics   map[string]float64
}

// Spec declares one experiment to the registry.
type Spec struct {
	// Name is the experiment's registry key ("fig3", "accuracy",
	// "fig10", ...), also the -exp selector for the whole experiment.
	Name string
	// Artifacts names the rendered outputs, in print order. Most
	// experiments render one artifact named like the spec; the accuracy
	// measurement renders tab1, tab2 and fig9 from one set of runs.
	Artifacts []string
	// Enumerate lists the experiment's work units at this configuration.
	// It must be a pure function of cfg, listing every key Assemble
	// reads.
	Enumerate func(cfg Config) []WorkUnit
	// Assemble renders the artifacts. Under the executor every unit has
	// been executed first, so Assemble only reads the memo; called
	// directly (tests, the bench harness) it simulates misses itself.
	Assemble func(cfg Config) (*Rendered, error)
}

// Specs returns every registered experiment in evaluation print order.
// The slice is shared; callers must not modify it.
func Specs() []*Spec { return allSpecs }

// allSpecs is the registry, in the order the evaluation prints. Each
// spec is defined next to its runner (fig3.go, accuracy.go, perf.go);
// registering here is what plugs a new figure into the executor and the
// completeness tests at once.
var allSpecs = []*Spec{
	fig3Spec,
	accuracySpec,
	fig10Spec,
	fig11Spec,
	fig12Spec,
	fig13Spec,
	fig14Spec,
}

// validateRegistry panics on duplicate spec or artifact names — a
// registration bug, caught at first use of the registry.
func validateRegistry() {
	specs := make(map[string]bool)
	arts := make(map[string]string)
	for _, s := range allSpecs {
		if specs[s.Name] {
			panic(fmt.Sprintf("experiments: duplicate spec %q", s.Name))
		}
		specs[s.Name] = true
		for _, a := range s.Artifacts {
			if owner, dup := arts[a]; dup {
				panic(fmt.Sprintf("experiments: artifact %q registered by both %q and %q", a, owner, s.Name))
			}
			arts[a] = s.Name
		}
	}
}

func init() { validateRegistry() }

// unitSet accumulates a spec's work units, deduplicated by key —
// e.g. every seed of a figure that normalizes against one native
// baseline contributes that baseline once. The typed add methods attach
// the canonical label.
type unitSet struct {
	units []WorkUnit
	seen  map[Key]bool
}

func newUnitSet() *unitSet {
	return &unitSet{seen: make(map[Key]bool)}
}

func (u *unitSet) add(w WorkUnit, label string) {
	if !u.seen[w.Key] {
		u.seen[w.Key] = true
		w.Label = label
		u.units = append(u.units, w)
	}
}

func (u *unitSet) native(name string, scale float64, v workload.Variant) {
	u.add(unit(nativeJob(name, scale, v)), fmt.Sprintf("native/%s@%g/v%d", name, scale, v))
}

func (u *unitSet) laser(name string, scale float64, repairOn, spec bool, sav int, seed int64) {
	label := fmt.Sprintf("laser/%s@%g/repair=%t/sav%d/seed%d", name, scale, repairOn, sav, seed)
	if spec && repairOn {
		label += "/spec"
	}
	u.add(unit(laserJob(name, scale, repairOn, spec, sav, seed)), label)
}

func (u *unitSet) laserProbe(name string, scale float64, sav int, seed int64) {
	u.add(unit(laserProbeJob(name, scale, sav, seed)), fmt.Sprintf("laser/%s@%g/probe/sav%d/seed%d", name, scale, sav, seed))
}

func (u *unitSet) vtune(name string, scale float64, seed int64) {
	u.add(unit(vtuneJob(name, scale, seed)), fmt.Sprintf("vtune/%s@%g/seed%d", name, scale, seed))
}

// sheriff adds a Sheriff run; callers enumerate only runs that pass
// runSheriff's gate.
func (u *unitSet) sheriff(name string, scale float64, mode sheriff.Mode, force bool) {
	u.add(unit(sheriffJob(name, scale, mode, force)), fmt.Sprintf("sheriff/%s@%g/mode%d", name, scale, mode))
}

func (u *unitSet) char(cat CharCategory, variant int) {
	u.add(unit(charJob(cat, variant)), fmt.Sprintf("char/%s/%d", cat, variant))
}

// runsOf clamps cfg.Runs like every runner does.
func runsOf(cfg Config) int {
	if cfg.Runs < 1 {
		return 1
	}
	return cfg.Runs
}
