package laser

// Golden digests: the executor checked against recorded output rather
// than against a second executor. Every stock workload runs natively,
// with cycle dilations, and under the Sheriff private-memory model where
// it supports it, at one and two intra-run workers; three repairing
// workloads run the full LASER session. Each run is reduced to a sha256
// over its statistics, coherence counters and HITM ground truth (plus,
// for sessions, the rendered report and the event stream) and compared
// with testdata/golden_digests.txt. The serial scheduler and the parallel
// engine share one decoded program, so agreement between them alone
// cannot catch a decode bug; the recorded digests can.
//
// Regenerate with
//
//	go test ./laser -run Golden -update-golden
//
// only for a change that is meant to alter simulated behaviour.

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/baseline/sheriff"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.txt from this run")

const goldenPath = "testdata/golden_digests.txt"

// goldenScale keeps the 35-workload sweep to a few seconds; it is fixed
// (not tied to -short) because the digests depend on it.
const goldenScale = 0.08

// golden holds the recorded digests, or collects fresh ones under
// -update-golden.
var golden = map[string]string{}

// checkGolden compares one run's digest with the recorded one, or
// records it under -update-golden.
func checkGolden(t *testing.T, key, desc string, canon string) {
	t.Helper()
	sum := sha256.Sum256([]byte(canon))
	got := hex.EncodeToString(sum[:])
	if *updateGolden {
		if prev, ok := golden[key]; ok && prev != got {
			t.Fatalf("%s: digest %s disagrees with %s recorded earlier in this run", desc, got, prev)
		}
		golden[key] = got
		return
	}
	want, ok := golden[key]
	if !ok {
		t.Fatalf("%s: no recorded digest for %q", desc, key)
	}
	if got != want {
		t.Fatalf("%s: digest %s, recorded %s\ncanonical form:\n%s", desc, got, want, canon)
	}
}

func readGolden() error {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			return fmt.Errorf("%s: malformed line %q", goldenPath, line)
		}
		golden[key] = sum
	}
	return nil
}

func writeGolden() error {
	keys := make([]string, 0, len(golden))
	for k := range golden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# sha256 per run; see golden_test.go\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, golden[k])
	}
	return os.WriteFile(goldenPath, []byte(b.String()), 0o644)
}

func TestMain(m *testing.M) {
	flag.Parse()
	if !*updateGolden {
		if err := readGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "golden digests:", err)
			os.Exit(1)
		}
	}
	code := m.Run()
	if *updateGolden && code == 0 {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "golden digests:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// canonStats renders the simulated observables of one machine run in a
// fixed textual form: named Stats fields, per-core clocks, the HITM
// ground truth in PC order and the coherence counters.
func canonStats(st *machine.Stats, coh []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d instructions=%d mem=%d hitm_loads=%d hitm_stores=%d\n",
		st.Cycles, st.Instructions, st.MemAccesses, st.HITMLoads, st.HITMStores)
	fmt.Fprintf(&b, "flushes=%d flush_aborts=%d htm_fallbacks=%d ssb_stores=%d ssb_loads=%d alias_misses=%d\n",
		st.Flushes, st.FlushAborts, st.HTMFallbacks, st.SSBStores, st.SSBLoads, st.AliasMisses)
	fmt.Fprintf(&b, "ctx_switches=%d probe_cycles=%d commits=%d commit_cycles=%d\n",
		st.ContextSwitches, st.ProbeCycles, st.Commits, st.CommitCycles)
	fmt.Fprintf(&b, "core_cycles=%v\n", st.CoreCycles)
	pcs := make([]mem.Addr, 0, len(st.HITMByPC))
	for pc := range st.HITMByPC {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		fmt.Fprintf(&b, "hitm %#x %d\n", uint64(pc), st.HITMByPC[pc])
	}
	if coh != nil {
		fmt.Fprintf(&b, "coherence=%v\n", coh)
	}
	return b.String()
}

// TestGoldenDigestsAllWorkloads runs every stock workload natively, with
// cycle dilations, and under the Sheriff model where supported, at one
// and two workers, and compares each run with its recorded digest.
func TestGoldenDigestsAllWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			// "dilated" adds the per-instruction and per-load cycle
			// dilations the VTune model charges.
			for _, mode := range []struct {
				key                   string
				extraInstr, extraLoad uint64
			}{{"native", 0, 0}, {"dilated", 3, 7}} {
				for _, par := range []int{1, 2} {
					img := w.Build(workload.Options{Scale: goldenScale})
					m := machine.New(img.Prog, machine.Config{
						Cores:            4,
						Parallelism:      par,
						PrivateData:      img.PrivateRanges(),
						ValidateSharing:  true,
						ExtraInstrCycles: mode.extraInstr,
						ExtraLoadCycles:  mode.extraLoad,
					}, img.Specs)
					img.Init(m)
					st, err := m.Run()
					if err != nil {
						t.Fatalf("%s workers=%d: %v", mode.key, par, err)
					}
					checkGolden(t, mode.key+"/"+w.Name, fmt.Sprintf("%s workers=%d", mode.key, par),
						canonStats(st, m.CoherenceCounts()))
				}
			}
			if w.Sheriff != sheriff.OK {
				return
			}
			for _, par := range []int{1, 2} {
				img := w.Build(workload.Options{Scale: goldenScale})
				det := sheriff.NewDetector(sheriff.Detect, sheriff.DefaultConfig(), img.ResolveLine)
				m := machine.New(img.Prog, machine.Config{
					Cores: 4, PrivateMemory: true, OnCommit: det.OnCommit,
					MaxCycles: 1 << 38, Parallelism: par,
					PrivateData: img.PrivateRanges(), ValidateSharing: true,
				}, img.Specs)
				img.Init(m)
				st, err := m.Run()
				if err != nil {
					t.Fatalf("sheriff workers=%d: %v", par, err)
				}
				checkGolden(t, "sheriff/"+w.Name, fmt.Sprintf("sheriff workers=%d", par),
					canonStats(st, m.CoherenceCounts())+fmt.Sprintf("findings=%v\n", det.Findings()))
			}
		})
	}
}

// TestGoldenSessionDigests runs the full LASER stack — PEBS, driver,
// detector, speculative repair, the hot-swap and post-repair monitoring
// of the rewritten program — on workloads whose repair applies, and
// compares report, event stream and statistics with the recorded
// digests at one and two workers.
func TestGoldenSessionDigests(t *testing.T) {
	for _, name := range []string{"histogram'", "linear_regression", "swaptions"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, ok := workload.Get(name)
			if !ok {
				t.Fatalf("unknown workload %q", name)
			}
			for _, par := range []int{1, 2} {
				img := w.Build(workload.Options{Scale: 0.2, HeapBias: AttachBias})
				var b strings.Builder
				s, err := Attach(img,
					WithMaxEpochs(2),
					WithAutoPollInterval(0.2),
					WithSpeculativeRepair(true),
					WithIntraRunParallelism(par),
					WithObserver(func(e Event) { fmt.Fprintf(&b, "event %v\n", e) }))
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Wait()
				s.Close()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "repair applied=%v winner=%q seconds=%v\n", res.RepairApplied, res.RepairWinner, res.Seconds)
				fmt.Fprintf(&b, "driver=%+v pebs=%+v\n", res.DriverStats, res.PEBSStats)
				b.WriteString(res.Report.Render())
				b.WriteString(canonStats(res.Stats, nil))
				checkGolden(t, "session/"+name, fmt.Sprintf("session workers=%d", par), b.String())
			}
		})
	}
}
