package laser

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/repair"
	"repro/internal/workload"
)

// scale keeps facade tests quick while leaving enough run time for the
// detector to act.
const scale = 0.6

// runOneShot attaches a session pinned to the paper's one-shot
// semantics — one detect→repair epoch, monitoring frozen at repair —
// around the named workload, built with the attach-time heap bias, and
// waits for it.
func runOneShot(t *testing.T, name string, opts workload.Options, cfg Config) *Result {
	t.Helper()
	w, ok := workload.Get(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	opts.HeapBias = AttachBias
	s, err := Attach(w.Build(opts), WithConfig(cfg), WithMaxEpochs(1), WithPostRepairMonitoring(false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunDetectsAndRepairsLinearRegression(t *testing.T) {
	w, _ := workload.Get("linear_regression")
	res := runOneShot(t, "linear_regression", workload.Options{Scale: scale}, DefaultConfig())
	if !res.RepairApplied {
		t.Errorf("online repair not applied (repairErr=%v)", res.RepairErr)
	}
	found := false
	for _, l := range res.Report.Lines {
		if l.Loc.File == "lreg.c" {
			found = true
		}
	}
	if !found {
		t.Errorf("lreg.c contention not reported:\n%s", res.Report.Render())
	}
	// Repair must beat the unmonitored native run despite monitoring.
	img := w.Build(workload.Options{Scale: scale})
	nat, err := RunNative(img, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles >= nat.Cycles {
		t.Errorf("LASER run with repair (%d cycles) not faster than native (%d)",
			res.Stats.Cycles, nat.Cycles)
	}
}

func TestRunQuietWorkloadLowOverhead(t *testing.T) {
	w, _ := workload.Get("blackscholes")
	res := runOneShot(t, "blackscholes", workload.Options{Scale: scale}, DefaultConfig())
	img := w.Build(workload.Options{Scale: scale})
	nat, err := RunNative(img, 4)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Stats.Cycles) / float64(nat.Cycles)
	if ratio > 1.05 {
		t.Errorf("quiet workload overhead %.3fx, want ~1.0x", ratio)
	}
	if len(res.Report.Lines) != 0 {
		t.Errorf("quiet workload reported contention: %+v", res.Report.Lines)
	}
	if res.RepairApplied {
		t.Error("repair applied on a quiet workload")
	}
}

func TestRunTrueSharingNoRepair(t *testing.T) {
	res := runOneShot(t, "kmeans", workload.Options{Scale: 0.3}, DefaultConfig())
	if res.RepairApplied {
		t.Error("LASERREPAIR must not attempt to repair true sharing")
	}
	if len(res.Report.Lines) == 0 {
		t.Fatal("kmeans contention not reported")
	}
}

func TestRunLuNcbRepairRefused(t *testing.T) {
	res := runOneShot(t, "lu_ncb", workload.Options{Scale: 2}, DefaultConfig())
	if res.RepairApplied {
		t.Error("lu_ncb repair should be refused (§7.4.2)")
	}
	if res.RepairErr == nil {
		t.Skip("repair never triggered at this scale")
	}
	if !errors.Is(res.RepairErr, repair.ErrComplexRegion) &&
		!errors.Is(res.RepairErr, repair.ErrNotProfitable) {
		t.Errorf("refusal reason = %v", res.RepairErr)
	}
}

func TestResultRenderable(t *testing.T) {
	res := runOneShot(t, "histogram'", workload.Options{Scale: scale}, DefaultConfig())
	if res.Stats.Instructions == 0 {
		t.Error("no instructions executed")
	}
	text := res.Report.Render()
	if !strings.Contains(text, "contention report") {
		t.Errorf("render: %q", text)
	}
	if res.PEBSStats.Records == 0 || res.DriverStats.Records == 0 {
		t.Error("monitoring stats empty")
	}
}

func TestRepairDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableRepair = false
	res := runOneShot(t, "histogram'", workload.Options{Scale: scale}, cfg)
	if res.RepairApplied {
		t.Error("repair ran while disabled")
	}
}
