package experiments

import (
	"fmt"

	"repro/internal/baseline/sheriff"
	"repro/internal/runcache"
	"repro/internal/workload"
)

// The experiment registry: every experiment of the evaluation is a
// declarative Spec — Enumerate lists the cacheable simulations (work
// units) the experiment needs, and Assemble renders its artifacts from
// the run cache. The executor (executor.go) owns the run loop end to
// end: it executes each selected spec's units on the worker pool
// (deduplicated across experiments by cache key), accounts per-unit
// cache hits and simulations, and only then asks the spec to assemble —
// so a warmed cache assembles every figure without simulating a single
// workload. A runner and its unit list live in one file, and the
// registry completeness test pins Enumerate against covering less than
// Assemble consumes.

// WorkUnit is one cacheable simulation of the evaluation.
type WorkUnit struct {
	Key   runcache.Key
	Label string
	// Run computes the unit (through the run cache).
	Run func() error
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
	// It must be a pure function of cfg: a warm run over a cache another
	// process filled must derive the same keys.
	Enumerate func(cfg Config) []WorkUnit
	// Assemble renders the artifacts. Under the executor every unit has
	// been executed first, so Assemble is pure cache assembly; called
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

// unitSet accumulates a spec's work units, deduplicated by cache key —
// e.g. every seed of a figure that normalizes against one native
// baseline contributes that baseline once. The typed add methods attach
// the canonical label.
type unitSet struct {
	units []WorkUnit
	seen  map[string]bool
}

func newUnitSet() *unitSet {
	return &unitSet{seen: make(map[string]bool)}
}

func (u *unitSet) add(key runcache.Key, label string, run func() error) {
	if id := key.ID(); !u.seen[id] {
		u.seen[id] = true
		u.units = append(u.units, WorkUnit{Key: key, Label: label, Run: run})
	}
}

func (u *unitSet) native(name string, scale float64, v workload.Variant) {
	u.add(nativeKey(name, scale, v), fmt.Sprintf("native/%s@%g/v%d", name, scale, v),
		func() error { _, err := runNative(name, scale, v); return err })
}

func (u *unitSet) laser(name string, scale float64, repairOn, spec bool, sav int, seed int64) {
	key, _ := laserKey(name, scale, repairOn, spec, sav, seed)
	label := fmt.Sprintf("laser/%s@%g/repair=%t/sav%d/seed%d", name, scale, repairOn, sav, seed)
	if spec && repairOn {
		label += "/spec"
	}
	u.add(key, label,
		func() error { _, err := runLaser(name, scale, repairOn, spec, sav, seed); return err })
}

func (u *unitSet) laserProbe(name string, scale float64, sav int, seed int64) {
	key, _ := laserProbeKey(name, scale, sav, seed)
	u.add(key, fmt.Sprintf("laser/%s@%g/probe/sav%d/seed%d", name, scale, sav, seed),
		func() error { _, err := runLaserProbe(name, scale, sav, seed); return err })
}

func (u *unitSet) vtune(name string, scale float64, seed int64) {
	key, _ := vtuneKey(name, scale, seed)
	u.add(key, fmt.Sprintf("vtune/%s@%g/seed%d", name, scale, seed),
		func() error { _, err := runVTune(name, scale, seed); return err })
}

func (u *unitSet) sheriff(name string, scale float64, mode sheriff.Mode, force bool) {
	u.add(sheriffKey(name, scale, mode, force), fmt.Sprintf("sheriff/%s@%g/mode%d", name, scale, mode),
		func() error { _, err := runSheriff(name, scale, mode, force); return err })
}

func (u *unitSet) char(cat CharCategory, variant int) {
	key, _ := charKey(cat, variant)
	u.add(key, fmt.Sprintf("char/%s/%d", cat, variant),
		func() error { _, err := runCharCase(cat, variant); return err })
}

// runsOf clamps cfg.Runs like every runner does.
func runsOf(cfg Config) int {
	if cfg.Runs < 1 {
		return 1
	}
	return cfg.Runs
}
