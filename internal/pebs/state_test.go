package pebs

import (
	"math/rand"
	"testing"
)

// The lazily seeded counting source yields the stock math/rand sequence
// value for value, through every Rand method the imprecision model uses.
func TestCountingSourceMatchesStock(t *testing.T) {
	const n = 10000
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		methods := map[string]func(r *rand.Rand) uint64{
			"Int63":   func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
			"Uint64":  func(r *rand.Rand) uint64 { return r.Uint64() },
			"Float64": func(r *rand.Rand) uint64 { return uint64(r.Float64() * (1 << 53)) },
		}
		for name, draw := range methods {
			got := rand.New(newCountingSource(seed))
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				if g, w := draw(got), draw(want); g != w {
					t.Fatalf("seed %d %s draw %d: %#x, want %#x", seed, name, i, g, w)
				}
			}
		}
	}
}

// A unit captured after k draws and restored into a fresh unit continues
// the captured unit's sequence value for value.
func TestRestoreContinuesDraws(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []int{0, 1, 5, 1000} {
		captured, _ := newUnit(cfg, &collectSink{})
		for i := 0; i < k; i++ {
			captured.rng.Float64()
		}
		st := captured.CaptureState()
		if st.Draws != uint64(k) {
			t.Fatalf("k=%d: captured %d draws", k, st.Draws)
		}
		fresh, _ := newUnit(cfg, &collectSink{})
		if err := fresh.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if g, w := fresh.rng.Int63(), captured.rng.Int63(); g != w {
				t.Fatalf("k=%d: draw %d after restore %d, want %d", k, i, g, w)
			}
		}
	}
}

// Seeding is paid at the first draw: a unit that is only built, or that
// is restored to a snapshot taken before any draw, holds no source.
func TestUnitSeedsOnFirstDraw(t *testing.T) {
	cfg := DefaultConfig()
	u, _ := newUnit(cfg, &collectSink{})
	if u.src.src != nil {
		t.Fatal("a built unit holds a seeded source")
	}
	st := u.CaptureState()
	u.rng.Float64()
	if u.src.src == nil {
		t.Fatal("a draw left the source unbuilt")
	}
	if err := u.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if u.src.src != nil || u.src.n != 0 {
		t.Fatalf("restored to 0 draws: source built %v, %d draws", u.src.src != nil, u.src.n)
	}
	fresh, _ := newUnit(cfg, &collectSink{})
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if fresh.src.src != nil {
		t.Fatal("a fresh unit restored to 0 draws seeded its source")
	}
}
