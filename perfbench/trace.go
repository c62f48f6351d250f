package main

// Spans and summary statistics. A span is recorded at each layer
// boundary the benchmark crosses — around its own calls into the
// workload builder, the laser session and laserd's HTTP API — and kept
// in memory until the run ends, when the whole trace is written out as
// one JSON document. Spans of one session share its id; a layer span's
// parent is the session span that caused it.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name    string `json:"name"`
	Session int64  `json:"session"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"` // relative to the tracer's origin
	EndNs   int64  `json:"end_ns"`
}

// tracer collects spans when on; when off, record is a no-op, so the
// end-to-end run pays nothing for it.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// record stores the span [start, end) of layer name for session id.
func (t *tracer) record(name, parent string, session int64, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name:    name,
		Session: session,
		Parent:  parent,
		StartNs: start.Sub(t.origin).Nanoseconds(),
		EndNs:   end.Sub(t.origin).Nanoseconds(),
	})
	t.mu.Unlock()
}

// durations returns the durations of the spans named name that belong to
// measured sessions (id >= 0); reference and warm-up sessions are left out.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name && s.Session >= 0 {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// write dumps the trace as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// samples is a set of durations with order statistics.
type samples []time.Duration

// quantile returns the q-quantile (0 < q < 1) by linear interpolation
// between the two nearest ranks, or 0 for an empty set.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := s.sorted()
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

// sorted returns a sorted copy of s.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// midMean returns the mean of the middle half of s — the samples between
// its first and third quartiles — or 0 for an empty set. Unlike the
// median it does not jump when a latency distribution has gaps (laserd's
// runners hold the daemon's processors for whole scheduler slices), and
// unlike the mean it ignores the tails.
func (s samples) midMean() time.Duration {
	sorted := s.sorted()
	mid := sorted[len(sorted)/4 : len(sorted)-len(sorted)/4]
	if len(mid) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range mid {
		sum += d
	}
	return sum / time.Duration(len(mid))
}

// ms, us and secs convert a duration to a float in that unit.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// mean returns the average of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
