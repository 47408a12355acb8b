package netem

import "math/rand"

// Rng is a lazily materialized deterministic random stream for loss
// processes. Seeding a math/rand generator fills a 607-word feedback
// register — by far the most expensive part of setting up a link or flow —
// yet most links and routes in the experiment suite never draw from their
// stream (their loss probability is zero). Rng therefore records only the
// seed at construction time and builds the generator on first draw: the
// seed-derivation chain (sim.Seeds) advances identically whether or not the
// stream is ever used, and the draw sequence once materialized is identical
// to an eagerly constructed rand.New(rand.NewSource(seed)), so recorded
// experiment outputs are unchanged.
type Rng struct {
	seed int64
	r    *rand.Rand
	// stale marks a materialized generator whose seed changed (Reseed on a
	// stream that already drew); it is re-seeded in place on the next draw,
	// so reuse never reallocates the 607-word register.
	stale bool
}

// SeededRng returns a stream that will materialize rand.New(rand.NewSource
// (seed)) on first draw.
func SeededRng(seed int64) Rng { return Rng{seed: seed} }

// Reseed rewinds the stream to a new seed in place, keeping any generator
// already materialized (it is lazily re-seeded on the next draw, which
// yields the identical sequence to a fresh rand.New(rand.NewSource(seed))).
// It is the arena-reuse counterpart of SeededRng.
func (g *Rng) Reseed(seed int64) {
	g.seed = seed
	g.stale = g.r != nil
}

// Float64 draws from the stream, materializing the generator on first use.
func (g *Rng) Float64() float64 {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	} else if g.stale {
		g.r.Seed(g.seed)
		g.stale = false
	}
	return g.r.Float64()
}
