package laser

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline/sheriff"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestNativeEngineEquivalenceAllWorkloads runs every stock workload
// natively under the serial scheduler and the intra-run parallel engine
// (with sharing validation on) and demands identical statistics and HITM
// ground truth. This is the soundness check for every thread-private
// range the workloads declare: a declaration another thread touches
// either panics (validation) or diverges (comparison).
func TestNativeEngineEquivalenceAllWorkloads(t *testing.T) {
	scale := 0.2
	if testing.Short() {
		scale = 0.08
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			variants := []workload.Variant{workload.Native}
			if w.HasFix {
				variants = append(variants, workload.Fixed)
			}
			for _, v := range variants {
				run := func(par int) *machine.Stats {
					img := w.Build(workload.Options{Scale: scale, Variant: v})
					m := machine.New(img.Prog, machine.Config{
						Cores:           4,
						Parallelism:     par,
						PrivateData:     img.PrivateRanges(),
						ValidateSharing: true,
					}, img.Specs)
					img.Init(m)
					st, err := m.Run()
					if err != nil {
						t.Fatalf("variant %d par %d: %v", v, par, err)
					}
					if par > 1 && !m.IntraRunParallel() {
						t.Fatalf("parallel engine not engaged")
					}
					return st
				}
				serial, parallel := run(1), run(4)
				if serial.Cycles != parallel.Cycles ||
					serial.Instructions != parallel.Instructions ||
					serial.MemAccesses != parallel.MemAccesses ||
					serial.HITMLoads != parallel.HITMLoads ||
					serial.HITMStores != parallel.HITMStores ||
					serial.Flushes != parallel.Flushes {
					t.Fatalf("variant %d: stats diverged\nserial:   %+v\nparallel: %+v", v, serial, parallel)
				}
				if !reflect.DeepEqual(serial.HITMByPC, parallel.HITMByPC) {
					t.Fatalf("variant %d: HITMByPC diverged", v)
				}
				if !reflect.DeepEqual(serial.CoreCycles, parallel.CoreCycles) {
					t.Fatalf("variant %d: per-core cycles diverged", v)
				}
			}
		})
	}
}

// TestSheriffEngineEquivalenceAllWorkloads covers the private-memory
// (Sheriff) execution model: overlay loads that miss must observe other
// threads' commits in the exact serial order — the regression behind
// the engine's full-hit-only segment rule.
func TestSheriffEngineEquivalenceAllWorkloads(t *testing.T) {
	scale := 0.3
	if testing.Short() {
		scale = 0.1
	}
	for _, w := range workload.All() {
		if w.Sheriff != sheriff.OK {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(par int) (*machine.Stats, []sheriff.Finding) {
				img := w.Build(workload.Options{Scale: scale})
				det := sheriff.NewDetector(sheriff.Detect, sheriff.DefaultConfig(), img.ResolveLine)
				m := machine.New(img.Prog, machine.Config{
					Cores: 4, PrivateMemory: true, OnCommit: det.OnCommit,
					MaxCycles: 1 << 38, Parallelism: par,
					PrivateData: img.PrivateRanges(), ValidateSharing: true,
				}, img.Specs)
				img.Init(m)
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st, det.Findings()
			}
			serial, sf := run(1)
			parallel, pf := run(4)
			if serial.Cycles != parallel.Cycles || serial.Instructions != parallel.Instructions ||
				serial.Commits != parallel.Commits || serial.CommitCycles != parallel.CommitCycles {
				t.Fatalf("sheriff stats diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
			if !reflect.DeepEqual(sf, pf) {
				t.Fatalf("sheriff findings diverged: %v vs %v", sf, pf)
			}
		})
	}
}

// TestSessionEngineEquivalence runs the full LASER stack — PEBS sampling,
// driver, detector, online repair — serially and with intra-run
// parallelism, and demands byte-identical rendered reports, identical
// statistics, and the same repair outcome. Repair exercises the engine's
// post-rewrite conservative mode (register-only segments) and the
// settle-before-hot-swap path.
func TestSessionEngineEquivalence(t *testing.T) {
	for _, name := range []string{"histogram'", "linear_regression", "kmeans", "dedup"} {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(par int) (*Result, string) {
				w, ok := workload.Get(name)
				if !ok {
					t.Fatalf("unknown workload %q", name)
				}
				img := w.Build(workload.Options{Scale: 0.5, HeapBias: AttachBias})
				s, err := Attach(img,
					WithMaxEpochs(1),
					WithPostRepairMonitoring(false),
					WithIntraRunParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				res, err := s.Wait()
				if err != nil {
					t.Fatal(err)
				}
				return res, res.Report.Render()
			}
			sres, srep := run(1)
			pres, prep := run(4)
			if srep != prep {
				t.Fatalf("rendered reports differ:\nserial:\n%s\nparallel:\n%s", srep, prep)
			}
			if sres.Stats.Cycles != pres.Stats.Cycles ||
				sres.Stats.Instructions != pres.Stats.Instructions ||
				sres.RepairApplied != pres.RepairApplied ||
				sres.Seconds != pres.Seconds {
				t.Fatalf("results diverged: serial %+v vs parallel %+v", sres.Stats, pres.Stats)
			}
			if sres.DriverStats != pres.DriverStats || sres.PEBSStats != pres.PEBSStats {
				t.Fatalf("monitoring stats diverged")
			}
			if !reflect.DeepEqual(sres.Stats.HITMByPC, pres.Stats.HITMByPC) {
				t.Fatalf("HITMByPC diverged")
			}
		})
	}
}

// TestSessionEngineEventStream: the deterministic typed event stream must
// be identical under both engines, event for event.
func TestSessionEngineEventStream(t *testing.T) {
	record := func(par int) []string {
		w, _ := workload.Get("histogram'")
		img := w.Build(workload.Options{Scale: 0.4, HeapBias: AttachBias})
		var got []string
		s, err := Attach(img,
			WithMaxEpochs(2),
			WithIntraRunParallelism(par),
			WithObserver(func(e Event) { got = append(got, fmt.Sprintf("%v", e)) }))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial, parallel := record(1), record(3)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("event streams diverged:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}
