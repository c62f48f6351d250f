package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	p, err := Parse("seed=42;unit.panic:p=0.5,attempts=1;state.read.corrupt;unit.stall:p=1,delay=150ms,match=native/histogram@")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Errorf("seed = %d, want 42", p.Seed)
	}
	if len(p.Rules) != 3 {
		t.Fatalf("rules = %+v, want 3", p.Rules)
	}
	want := []Fault{
		{Point: PointUnitPanic, Prob: 0.5, Attempts: 1},
		{Point: PointStateReadCorrupt, Prob: 1},
		{Point: PointUnitStall, Prob: 1, Delay: 150 * time.Millisecond, Match: "native/histogram@"},
	}
	for i, w := range want {
		if p.Rules[i] != w {
			t.Errorf("rule %d = %+v, want %+v", i, p.Rules[i], w)
		}
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if p, err := Parse("  "); p != nil || err != nil {
		t.Errorf("empty spec: plan %v err %v, want nil/nil", p, err)
	}
	for _, bad := range []string{
		"seed=x;unit.panic",
		"unit.panik",
		"cache.read.corrupt", // the run cache's points are gone
		"cache.read.err",
		"cache.write.err",
		"unit.panic:p=1.5",
		"unit.panic:p",
		"unit.panic:attempts=-1",
		"unit.panic:delay=fast",
		"unit.panic:frequency=often",
		"seed=7",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// The same plan must fire the same faults at the same (point, key,
// attempt) regardless of call order or repetition: replayability is the
// whole point.
func TestDecisionsDeterministic(t *testing.T) {
	p, err := Parse("seed=9;unit.panic:p=0.4;state.write.err:p=0.4")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	first := map[string]bool{}
	fired := 0
	for _, k := range keys {
		_, ok := p.decide(PointUnitPanic, k, 1)
		first[k] = ok
		if ok {
			fired++
		}
	}
	if fired == 0 || fired == len(keys) {
		t.Fatalf("p=0.4 over %d keys fired %d times — hash not spreading", len(keys), fired)
	}
	// Re-query in reverse and repeatedly: identical outcomes.
	for i := len(keys) - 1; i >= 0; i-- {
		for rep := 0; rep < 3; rep++ {
			if _, ok := p.decide(PointUnitPanic, keys[i], 1); ok != first[keys[i]] {
				t.Fatalf("key %q flipped between queries", keys[i])
			}
		}
	}
	// Points are independent coins: the two p=0.4 points must not fire
	// on exactly the same key set.
	same := true
	for _, k := range keys {
		_, ok := p.decide(PointStateWriteErr, k, 1)
		if ok != first[k] {
			same = false
		}
	}
	if same {
		t.Error("distinct points fired identically on every key — point not hashed in")
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"k", "l", "m", "n", "o", "p", "q", "r", "s", "t"}
	diff := false
	p1, _ := Parse("seed=1;unit.err:p=0.5")
	p2, _ := Parse("seed=2;unit.err:p=0.5")
	for _, k := range keys {
		_, a := p1.decide(PointUnitErr, k, 1)
		_, b := p2.decide(PointUnitErr, k, 1)
		if a != b {
			diff = true
		}
	}
	if !diff {
		t.Error("seeds 1 and 2 agreed on all 20 keys — seed not hashed in")
	}
}

func TestAttemptBound(t *testing.T) {
	p, _ := Parse("seed=1;unit.err:p=1,attempts=2")
	for attempt := 1; attempt <= 4; attempt++ {
		_, ok := p.decide(PointUnitErr, "k", attempt)
		if want := attempt <= 2; ok != want {
			t.Errorf("attempt %d: fired=%v, want %v", attempt, ok, want)
		}
	}
	perm, _ := Parse("seed=1;unit.err:p=1")
	if _, ok := perm.decide(PointUnitErr, "k", 1000); !ok {
		t.Error("permanent rule stopped firing")
	}
}

func TestMatchFilter(t *testing.T) {
	p, _ := Parse("seed=1;unit.panic:p=1,match=vtune/string_match")
	if _, ok := p.decide(PointUnitPanic, "vtune/string_match@3/seed1", 1); !ok {
		t.Error("matching key did not fire")
	}
	if _, ok := p.decide(PointUnitPanic, "native/histogram@3/v0", 1); ok {
		t.Error("non-matching key fired")
	}
}

func TestHelpersAndDisabledPath(t *testing.T) {
	Enable(nil)
	t.Cleanup(func() { Enable(nil) })
	if err := Error(PointUnitErr, "k", 1); err != nil {
		t.Fatalf("disabled Error = %v", err)
	}
	Panic(PointUnitPanic, "k", 1) // must not panic
	if got := Corrupt(PointStateReadCorrupt, "k", []byte("abcd")); string(got) != "abcd" {
		t.Fatalf("disabled Corrupt rewrote data: %q", got)
	}

	p, err := Parse("seed=1;unit.panic:p=1;unit.err:p=1;unit.stall:p=1,delay=1ms;state.read.corrupt:p=1")
	if err != nil {
		t.Fatal(err)
	}
	Enable(p)
	var inj *InjectedError
	if err := Error(PointUnitErr, "k", 1); !errors.As(err, &inj) {
		t.Fatalf("Error = %v, want *InjectedError", err)
	}
	func() {
		defer func() {
			r := recover()
			if _, ok := r.(*InjectedError); !ok {
				t.Errorf("Panic recovered %v, want *InjectedError", r)
			}
		}()
		Panic(PointUnitPanic, "k", 1)
		t.Error("Panic did not panic")
	}()
	start := time.Now()
	if err := Stall(PointUnitStall, "k", 1); !errors.As(err, &inj) || inj.Stalled != time.Millisecond {
		t.Errorf("Stall = %v", err)
	} else if time.Since(start) < time.Millisecond {
		t.Error("Stall did not sleep")
	}
	if got := Corrupt(PointStateReadCorrupt, "k", []byte("abcdefgh")); len(got) != 4 {
		t.Errorf("Corrupt kept %d bytes, want truncation to 4", len(got))
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	spec := "seed=5;unit.panic:p=0.25,attempts=1"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != spec {
		t.Fatalf("String() = %q, want %q", p.String(), spec)
	}
	again, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.Seed != p.Seed || len(again.Rules) != len(p.Rules) || again.Rules[0] != p.Rules[0] {
		t.Errorf("replayed plan differs: %+v vs %+v", again, p)
	}
}

// The disabled fast path is one atomic pointer load — the cost the
// executor and the journal pay on every healthy run.
func BenchmarkCheckDisabled(b *testing.B) {
	Enable(nil)
	for i := 0; i < b.N; i++ {
		if _, ok := Check("unit.err", "laser/histogram@1/sav7/seed1", 1); ok {
			b.Fatal("disabled plan fired")
		}
	}
}
