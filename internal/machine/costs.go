package machine

import "repro/internal/coherence"

// The cycle cost model. Constants are calibrated once so that the paper's
// headline magnitudes emerge from the simulation (they are *not* fitted per
// benchmark): a HITM transfer is ~two orders of magnitude more expensive
// than a local hit, which is what makes false sharing a 10x-class bug in
// linear_regression; SSB operations cost tens of cycles because the paper's
// store buffer is software maintained under Pin.
const (
	// ClockHz converts simulated cycles to seconds. The paper's machine
	// is a 3.4 GHz Core i7-4770K.
	ClockHz = 3.4e9

	CostALU    = 1
	CostBranch = 1
	CostNop    = 1
	CostPause  = 4 // spin-wait hint
	CostCall   = 2
	CostRet    = 2
	CostFence  = 12

	CostMemHitLocal     = 2   // L1 hit
	CostMemHitShared    = 2   // L1 hit on a Shared line
	CostMissMemory      = 90  // service from DRAM
	CostMissRemoteClean = 45  // clean line from a remote cache
	CostHITM            = 180 // dirty line from a remote cache (the contention cost)
	CostUpgrade         = 40  // invalidate remote Shared copies
	CostAtomicExtra     = 10  // extra latency of a locked RMW

	// Software store buffer (LASERREPAIR, §5). Each SSB access performs a
	// software hash lookup under binary instrumentation.
	CostSSBOp        = 35 // instrumented load/store when the SSB is active
	CostSSBIdle      = 6  // instrumented load/store when the SSB is empty
	CostSSBFlushBase = 60 // HTM begin+commit
	CostSSBFlushLine = 8  // per buffered line, plus the coherence cost of its write
	CostHTMFallback  = 400
	CostAliasCheck   = 3

	// SSBCapacity is the pre-emptive flush threshold: the L1 associativity
	// of the paper's machine (§5.5).
	SSBCapacity = 8

	// HTMMaxRetries aborts before taking the serialized fallback path.
	HTMMaxRetries = 3

	// Scheduling.
	DefaultQuantum    = 200_000 // cycles (~59 µs at 3.4 GHz)
	CostContextSwitch = 3_000

	// Sheriff-style private-memory execution (baseline): committing a
	// thread's private pages at a synchronization point costs a base
	// amount plus a per-dirty-page diff cost.
	CostCommitBase      = 4_000
	CostCommitDirtyPage = 2_500
)

// costTable maps a coherence access outcome to cycles; the table form
// keeps the per-access hot path branch-free.
var costTable = [8]uint64{
	coherence.HitLocal:        CostMemHitLocal,
	coherence.HitShared:       CostMemHitShared,
	coherence.MissMemory:      CostMissMemory,
	coherence.MissRemoteClean: CostMissRemoteClean,
	coherence.HITMLoad:        CostHITM,
	coherence.HITMStore:       CostHITM,
	coherence.Upgrade:         CostUpgrade,
	7:                         CostMemHitLocal, // out-of-range guard value
}
