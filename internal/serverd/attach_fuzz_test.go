package serverd

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/laser"
)

// fuzzBudget is the per-session cycle budget FuzzAttachRequest admits
// with: enough for the one Step it takes, small enough to keep each
// input to a few milliseconds.
const fuzzBudget = 400_000

// FuzzAttachRequest: a POST /sessions body is untrusted input. Any JSON
// the handler would decode goes through Validate, SessionOptions and,
// for custom images, laser.Attach without a panic (named workloads stop
// at Validate: building them is slow). And every session that attaches
// restores from its own checkpoint with the options rebuilt from its
// attach record, as journal recovery does: the record round-trips
// through JSON, the snapshot through its encoding, and the fingerprint
// of the rebuilt options must match.
func FuzzAttachRequest(f *testing.F) {
	for _, seed := range []string{
		`{"custom":{"threads":2,"iters":20000,"stride":8,"alus":2},"options":{"seed":1,"sav":7}}`,
		`{"workload":"histogram'","scale":0.1,"options":{"auto_poll":true}}`,
		`{"custom":{"threads":4,"iters":3000,"stride":8,"alus":0},"options":{"post_repair_monitoring":false,"max_epochs":1,"poll_interval":50000}}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req AttachRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Validate() != nil || req.Custom == nil {
			return
		}
		opts, maxCycles := req.SessionOptions(fuzzBudget)
		s, err := laser.Attach(req.BuildImage(), opts...)
		if err != nil {
			return
		}
		defer s.Close()

		raw, err := json.Marshal(attachRecord{Request: req, MaxCycles: maxCycles})
		if err != nil {
			t.Fatal(err)
		}
		var rec attachRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("attach record %s does not decode: %v", raw, err)
		}
		ropts, _ := rec.Request.SessionOptions(rec.MaxCycles)
		restores := func(when string) {
			blob, err := s.CaptureState().Encode()
			if err != nil {
				t.Fatalf("encode %s: %v", when, err)
			}
			st, err := laser.DecodeSessionState(blob)
			if err != nil {
				t.Fatalf("checkpoint %s does not decode: %v", when, err)
			}
			r, err := laser.RestoreSession(rec.Request.BuildImage(), st, ropts...)
			if err != nil {
				t.Fatalf("session attached from %s does not restore %s from its attach record: %v", body, when, err)
			}
			r.Close()
		}
		// Checkpoints are taken at attach and after steps; a step that
		// ends the session (at its cycle budget, say) leaves nothing to
		// resume.
		restores("at attach")
		if done, err := s.Step(); done || err != nil {
			return
		}
		restores("after a step")
	})
}
