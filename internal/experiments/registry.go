package experiments

import "fmt"

// The experiment registry: every experiment of the evaluation is a
// declarative Spec — its name, the artifacts it renders and an
// Assemble step that renders them. Assemble reads every simulation it
// needs through the run memo (memo.go), so a simulation several
// experiments share is computed once per process, and Run (run.go)
// walks the registry in print order calling each selected Assemble.

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
	// Assemble renders the artifacts, simulating through the run memo
	// whatever an earlier experiment has not.
	Assemble func(cfg Config) (*Rendered, error)
}

// Specs returns every registered experiment in evaluation print order.
// The slice is shared; callers must not modify it.
func Specs() []*Spec { return allSpecs }

// allSpecs is the registry, in the order the evaluation prints. Each
// spec is defined next to its runner (fig3.go, accuracy.go, perf.go);
// registering here is what plugs a new figure into Run and the registry
// tests at once.
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
