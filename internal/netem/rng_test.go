package netem

import (
	"math/rand"
	"testing"
)

// TestRngMatchesMathRand guards lazy seeding: whichever way an Rng reaches a
// seed — built with it, re-seeded before its first draw, or re-seeded after
// it already drew — its stream must be rand.New(rand.NewSource(seed))'s
// draw for draw, and re-seeding a materialized stream must reuse its
// generator without allocating.
func TestRngMatchesMathRand(t *testing.T) {
	same := func(g *Rng, seed int64, how string) {
		t.Helper()
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if want, got := ref.Float64(), g.Float64(); got != want {
				t.Fatalf("seed %d %s: draw %d = %v, want %v", seed, how, i, got, want)
			}
		}
	}
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40, -(1 << 40), 89482311, 1<<31 - 1} {
		fresh := SeededRng(seed)
		same(&fresh, seed, "fresh")

		idle := SeededRng(seed + 7)
		idle.Reseed(seed)
		same(&idle, seed, "reseeded before any draw")

		used := SeededRng(seed + 7)
		for i := 0; i < 10; i++ {
			used.Float64()
		}
		gen := used.r
		used.Reseed(seed)
		same(&used, seed, "reseeded after drawing")
		if used.r != gen {
			t.Fatalf("seed %d: Reseed replaced a materialized generator", seed)
		}
		if n := testing.AllocsPerRun(5, func() { used.Reseed(seed); used.Float64() }); n != 0 {
			t.Fatalf("seed %d: reseed and draw allocates %.0f objects, want 0", seed, n)
		}
	}
}
