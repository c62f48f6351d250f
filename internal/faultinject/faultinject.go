// Package faultinject is a deterministic fault-injection layer for the
// evaluation's chaos tests. A seeded fault plan — parsed from the
// LASER_FAULT_PLAN environment variable (laserbench and laserd) or the
// laserbench -fault-plan flag — names injection points in the
// evaluation's run memo and laserd's session journal and fires faults
// at them: panics inside a simulation, injected errors, stalls that
// push a simulation past its deadline, failed journal writes and
// truncated checkpoint reads.
//
// Every decision is a pure function of (plan seed, point name, site
// key): no call counters shared across goroutines, no clocks, no
// randomness. Two processes running the same plan over the same work
// therefore inject the same faults into the same simulations no matter
// how execution interleaves — a chaos failure observed in CI is
// replayed exactly by re-running with the printed plan string. A fault
// that fires at a key fires every time that key is checked.
//
// With no plan enabled, every helper is a single atomic pointer load
// and a nil check; the run memo and journal hot paths pay nothing
// measurable.
//
// Plan syntax (see Parse):
//
//	seed=42;unit.panic:p=0.05;unit.err:p=0.3;unit.stall:p=1,delay=2s,match=native/histogram@
package faultinject

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The registered injection points. Sites pass their own stable key: the
// evaluation's run memo passes the simulation's key label, which starts
// "<tool>/<workload>@<scale>", and the journal passes the session id; a
// rule's match= substring selects faults by it.
const (
	// PointUnitPanic panics at the start of a memoized simulation.
	PointUnitPanic = "unit.panic"
	// PointUnitErr fails a memoized simulation with an injected error.
	PointUnitErr = "unit.err"
	// PointUnitStall sleeps a memoized simulation past its deadline
	// (it then fails with an injected stall error; the memo's deadline
	// normally preempts it first).
	PointUnitStall = "unit.stall"
	// PointStateWriteErr fails a session-journal write (checkpoint or
	// frame-log append) in the durable-session store; the session keeps
	// running and retries at the next cadence. Keyed by session id.
	PointStateWriteErr = "state.write.err"
	// PointStateReadCorrupt truncates the bytes read from a session
	// checkpoint during recovery: the checksum rejects them and the
	// journal is quarantined instead of restored. Keyed by session id.
	PointStateReadCorrupt = "state.read.corrupt"
)

// Fault is one parsed plan rule.
type Fault struct {
	// Point names the injection point the rule arms.
	Point string
	// Prob is the per-(point, key) firing probability in [0, 1].
	Prob float64
	// Delay is the stall duration; only PointUnitStall rules take one.
	Delay time.Duration
	// Match, when non-empty, restricts the rule to site keys containing
	// it as a substring.
	Match string
}

// Plan is a parsed, seeded fault plan. A Plan is immutable after Parse
// and safe for concurrent use.
type Plan struct {
	// Seed drives every firing decision.
	Seed int64
	// Rules in plan order; the first matching rule per point wins.
	Rules []Fault

	spec string
}

// String returns the canonical plan spec — pasting it into
// LASER_FAULT_PLAN (or -fault-plan) replays the exact same faults.
func (p *Plan) String() string { return p.spec }

// Parse parses a plan spec: semicolon-separated segments, the first
// optionally "seed=N" (default seed 1), each further segment a rule
// "point" or "point:k=v,k=v" with keys p (probability in [0, 1],
// default 1), delay (non-negative Go duration, stall points only), and
// match (substring filter on the site key). An empty spec yields a nil
// plan.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1, spec: spec}
	for i, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if i == 0 && strings.HasPrefix(seg, "seed=") {
			seed, err := strconv.ParseInt(seg[len("seed="):], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed in %q: %v", seg, err)
			}
			p.Seed = seed
			continue
		}
		point, args, _ := strings.Cut(seg, ":")
		point = strings.TrimSpace(point)
		if !knownPoint(point) {
			return nil, fmt.Errorf("faultinject: unknown injection point %q (want one of %s)",
				point, strings.Join(Points(), ", "))
		}
		f := Fault{Point: point, Prob: 1}
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("faultinject: rule %q: want key=value, got %q", seg, kv)
				}
				var err error
				switch k {
				case "p":
					f.Prob, err = strconv.ParseFloat(v, 64)
					// Written so NaN fails too: a NaN rule would never fire.
					if err == nil && !(f.Prob >= 0 && f.Prob <= 1) {
						err = fmt.Errorf("probability %g outside [0, 1]", f.Prob)
					}
				case "delay":
					f.Delay, err = time.ParseDuration(v)
					if err == nil && f.Delay < 0 {
						err = fmt.Errorf("negative delay %s", f.Delay)
					}
					if err == nil && point != PointUnitStall {
						err = fmt.Errorf("delay set on %s, which does not stall", point)
					}
				case "match":
					f.Match = v
				default:
					err = fmt.Errorf("unknown key %q", k)
				}
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: %v", seg, err)
				}
			}
		}
		p.Rules = append(p.Rules, f)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("faultinject: plan %q declares a seed but no rules", spec)
	}
	return p, nil
}

// knownPoints is the point registry; Parse rejects typos so a chaos run
// never silently injects nothing.
var knownPoints = map[string]bool{
	PointUnitPanic:        true,
	PointUnitErr:          true,
	PointUnitStall:        true,
	PointStateWriteErr:    true,
	PointStateReadCorrupt: true,
}

func knownPoint(p string) bool { return knownPoints[p] }

// Points lists every registered injection point, sorted.
func Points() []string {
	pts := make([]string, 0, len(knownPoints))
	for p := range knownPoints {
		pts = append(pts, p)
	}
	sort.Strings(pts)
	return pts
}

// active is the process-wide enabled plan; nil disables injection. An
// atomic pointer keeps the disabled fast path to one load.
var active atomic.Pointer[Plan]

// Enable installs the plan process-wide (nil disables injection).
func Enable(p *Plan) { active.Store(p) }

// Enabled returns the active plan, nil when injection is off.
func Enabled() *Plan { return active.Load() }

// frac hashes (seed, point, key) into [0, 1): the deterministic coin
// behind every firing decision.
func frac(seed int64, point, key string) float64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(point))
	h.Write([]byte{0})
	h.Write([]byte(key))
	// FNV-1a's final multiply barely stirs the top bits for short
	// inputs; run the sum through a 64-bit finalizer so trailing-byte
	// differences avalanche across the whole word.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// decide returns the first armed rule for point that fires at key.
func (p *Plan) decide(point, key string) (Fault, bool) {
	for _, f := range p.Rules {
		if f.Point != point {
			continue
		}
		if f.Match != "" && !strings.Contains(key, f.Match) {
			continue
		}
		if frac(p.Seed, point, key) < f.Prob {
			return f, true
		}
	}
	return Fault{}, false
}

// Check reports whether a fault fires at (point, key) under the active
// plan. The no-plan path is one atomic load.
func Check(point, key string) (Fault, bool) {
	p := active.Load()
	if p == nil {
		return Fault{}, false
	}
	return p.decide(point, key)
}

// Error returns an injected error when (point, key) fires, nil
// otherwise.
func Error(point, key string) error {
	if f, ok := Check(point, key); ok {
		return &InjectedError{Point: f.Point, Key: key}
	}
	return nil
}

// Panic panics with an *InjectedError value when (point, key) fires.
func Panic(point, key string) {
	if f, ok := Check(point, key); ok {
		panic(&InjectedError{Point: f.Point, Key: key})
	}
}

// Stall sleeps the rule's delay and returns an injected error when
// (point, key) fires; the caller is expected to be racing a deadline
// that preempts the sleep's outcome.
func Stall(point, key string) error {
	if f, ok := Check(point, key); ok {
		time.Sleep(f.Delay)
		return &InjectedError{Point: f.Point, Key: key, Stalled: f.Delay}
	}
	return nil
}

// Corrupt truncates data mid-read when (point, key) fires — the
// injected counterpart of a torn or half-written file.
func Corrupt(point, key string, data []byte) []byte {
	if _, ok := Check(point, key); ok {
		return data[:len(data)/2]
	}
	return data
}

// InjectedError marks a fault injected by the active plan.
type InjectedError struct {
	Point   string
	Key     string
	Stalled time.Duration
}

func (e *InjectedError) Error() string {
	if e.Stalled > 0 {
		return fmt.Sprintf("faultinject: %s stalled %s for %s", e.Point, e.Key, e.Stalled)
	}
	return fmt.Sprintf("faultinject: %s fired for %s", e.Point, e.Key)
}
