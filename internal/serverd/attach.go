package serverd

// The attach surface: what POST /sessions accepts, how it is validated,
// and how it turns into a workload image plus laser options. Everything
// here is exported so a client-side twin (laserload's divergence check,
// the SSE determinism tests) can rebuild the exact session the server
// attaches and compare event streams byte for byte.

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
	"repro/laser"
)

// CustomImage is the "uploaded image" form of an attach: a parameterized
// contention microbenchmark built server-side with the public ISA
// builder, the remote twin of the examples/counters hand-built image.
// Each of Threads threads runs Iters loop iterations of Alus
// register-only ALU operations followed by a load-increment-store on its
// own 8-byte slot of one shared array; slots sit Stride bytes apart, so
// Stride below the 64-byte line size packs several threads into each
// cache line (false sharing), while Stride of a full line keeps them
// apart (no contention).
type CustomImage struct {
	Threads int   `json:"threads"`
	Iters   int64 `json:"iters"`
	Stride  int   `json:"stride"`
	Alus    int   `json:"alus"`
}

// Custom image limits: a hosted service builds programs on behalf of
// untrusted clients, so every dimension is bounded.
const (
	maxCustomThreads = 16
	maxCustomIters   = 5_000_000
	maxCustomStride  = 4096
	maxCustomAlus    = 64
)

// Validate bounds every dimension of a custom image.
func (c *CustomImage) Validate() error {
	switch {
	case c.Threads < 1 || c.Threads > maxCustomThreads:
		return fmt.Errorf("custom.threads must be in [1,%d], got %d", maxCustomThreads, c.Threads)
	case c.Iters < 1 || c.Iters > maxCustomIters:
		return fmt.Errorf("custom.iters must be in [1,%d], got %d", maxCustomIters, c.Iters)
	case c.Stride < 8 || c.Stride > maxCustomStride || c.Stride%8 != 0:
		return fmt.Errorf("custom.stride must be a multiple of 8 in [8,%d], got %d", maxCustomStride, c.Stride)
	case c.Alus < 0 || c.Alus > maxCustomAlus:
		return fmt.Errorf("custom.alus must be in [0,%d], got %d", maxCustomAlus, c.Alus)
	}
	return nil
}

// Build constructs the custom image. The program is identical for equal
// CustomImage values, so equal uploads (with equal options and seeds)
// produce identical event streams.
func (c *CustomImage) Build() *workload.Image {
	b := isa.NewBuilder().At("custom.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop").Line(2)
	for i := 0; i < c.Alus; i++ {
		b.AddI(2, 2, 1)
	}
	b.Line(3)
	b.Load(3, 0, 0, 8)
	b.AddI(3, 3, 1)
	b.Store(0, 0, 3, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, c.Iters, "loop")
	b.Halt()
	prog := b.Build()

	specs := make([]machine.ThreadSpec, c.Threads)
	for t := 0; t < c.Threads; t++ {
		slot := mem.HeapBase + mem.Addr(t*c.Stride)
		specs[t] = machine.ThreadSpec{Entry: 0, Regs: map[isa.Reg]int64{0: int64(slot)}}
	}
	return &workload.Image{Prog: prog, Specs: specs, Threads: c.Threads}
}

// AttachOptions mirrors the laser functional-option surface over JSON.
// Pointer fields distinguish "absent" from a zero value: only present
// fields apply their option, and every value passes through the same
// validation the corresponding laser.With... option performs — the
// server rejects exactly what Attach would.
type AttachOptions struct {
	Cores                *int     `json:"cores,omitempty"`
	SAV                  *int     `json:"sav,omitempty"`
	Seed                 *int64   `json:"seed,omitempty"`
	MaxCycles            *uint64  `json:"max_cycles,omitempty"`
	MaxEpochs            *int     `json:"max_epochs,omitempty"`
	PollInterval         *uint64  `json:"poll_interval,omitempty"`
	AutoPoll             *bool    `json:"auto_poll,omitempty"`
	RateThreshold        *float64 `json:"rate_threshold,omitempty"`
	RepairRateThreshold  *float64 `json:"repair_rate_threshold,omitempty"`
	Repair               *bool    `json:"repair,omitempty"`
	PostRepairMonitoring *bool    `json:"post_repair_monitoring,omitempty"`
	IntraRunParallelism  *int     `json:"intra_run_parallelism,omitempty"`
	SpeculativeRepair    *bool    `json:"speculative_repair,omitempty"`
	TrialBudget          *uint64  `json:"trial_budget,omitempty"`
}

// AttachRequest is the body of POST /sessions: a workload by name or an
// uploaded custom image, build parameters, and session options.
type AttachRequest struct {
	// Workload names one of the paper's benchmarks; Custom uploads a
	// parameterized image instead. Exactly one must be set.
	Workload string       `json:"workload,omitempty"`
	Custom   *CustomImage `json:"custom,omitempty"`
	// Scale multiplies the named workload's iteration counts (1 = the
	// benchmark default; ignored for custom images).
	Scale float64 `json:"scale,omitempty"`
	// Variant selects the named workload's build: "" or "native" for the
	// benchmark as shipped, "fixed" for the paper's manual fix.
	Variant string `json:"variant,omitempty"`
	// HeapBias applies the attach-time heap perturbation (laser.AttachBias),
	// as the evaluation harness does. Defaults to true; ignored for
	// custom images, which lay their data out explicitly.
	HeapBias *bool `json:"heap_bias,omitempty"`
	// Options is the functional-option surface.
	Options AttachOptions `json:"options"`
}

// Validate checks everything that can be checked without building: the
// workload/custom choice, the variant, the scale, and custom image
// bounds. Option values are validated when the options are materialized
// (the same laser-side checks Attach runs).
func (r *AttachRequest) Validate() error {
	if (r.Workload == "") == (r.Custom == nil) {
		return errors.New("exactly one of workload and custom must be set")
	}
	if r.Workload != "" {
		if _, ok := workload.Get(r.Workload); !ok {
			return fmt.Errorf("unknown workload %q", r.Workload)
		}
	}
	if r.Custom != nil {
		if err := r.Custom.Validate(); err != nil {
			return err
		}
		if r.Scale != 0 {
			return errors.New("scale applies to named workloads only")
		}
		if r.Variant != "" {
			return errors.New("variant applies to named workloads only")
		}
	}
	switch r.Variant {
	case "", "native", "fixed":
	default:
		return fmt.Errorf("variant must be \"native\" or \"fixed\", got %q", r.Variant)
	}
	if r.Scale < 0 || r.Scale > 100 {
		return fmt.Errorf("scale must be in (0,100], got %g", r.Scale)
	}
	return nil
}

// BuildImage constructs the workload image the request describes.
// Callers must have validated the request.
func (r *AttachRequest) BuildImage() *workload.Image {
	if r.Custom != nil {
		return r.Custom.Build()
	}
	w, _ := workload.Get(r.Workload)
	opts := workload.Options{Scale: r.Scale}
	if r.Variant == "fixed" {
		opts.Variant = workload.Fixed
	}
	if r.HeapBias == nil || *r.HeapBias {
		opts.HeapBias = laser.AttachBias
	}
	return w.Build(opts)
}

// SessionOptions materializes the laser option list plus the effective
// cycle budget, with the client's requested cap clamped to the server's
// per-session budget. The returned options are exactly what the server
// passes to laser.Attach, so an in-process twin built from the same
// request (and budget) monitors identically.
func (r *AttachRequest) SessionOptions(budget uint64) ([]laser.Option, uint64) {
	o := r.Options
	maxCycles := budget
	if o.MaxCycles != nil && *o.MaxCycles > 0 && *o.MaxCycles < budget {
		maxCycles = *o.MaxCycles
	}
	var opts []laser.Option
	opts = append(opts, laser.WithMaxCycles(maxCycles))
	if o.Cores != nil {
		opts = append(opts, laser.WithCores(*o.Cores))
	}
	if o.SAV != nil {
		opts = append(opts, laser.WithSAV(*o.SAV))
	}
	if o.Seed != nil {
		opts = append(opts, laser.WithSeed(*o.Seed))
	}
	if o.MaxEpochs != nil {
		opts = append(opts, laser.WithMaxEpochs(*o.MaxEpochs))
	}
	if o.PollInterval != nil {
		opts = append(opts, laser.WithPollInterval(*o.PollInterval))
	}
	if o.AutoPoll != nil && *o.AutoPoll {
		scale := r.Scale
		if scale == 0 {
			scale = 1
		}
		opts = append(opts, laser.WithAutoPollInterval(scale))
	}
	if o.RateThreshold != nil {
		opts = append(opts, laser.WithRateThreshold(*o.RateThreshold))
	}
	if o.RepairRateThreshold != nil {
		opts = append(opts, laser.WithRepairRateThreshold(*o.RepairRateThreshold))
	}
	if o.Repair != nil {
		opts = append(opts, laser.WithRepair(*o.Repair))
	}
	if o.PostRepairMonitoring != nil {
		opts = append(opts, laser.WithPostRepairMonitoring(*o.PostRepairMonitoring))
	}
	if o.IntraRunParallelism != nil {
		opts = append(opts, laser.WithIntraRunParallelism(*o.IntraRunParallelism))
	}
	if o.SpeculativeRepair != nil {
		opts = append(opts, laser.WithSpeculativeRepair(*o.SpeculativeRepair))
	}
	if o.TrialBudget != nil {
		opts = append(opts, laser.WithTrialBudget(*o.TrialBudget))
	}
	return opts, maxCycles
}
