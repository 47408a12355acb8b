package exp

import (
	"fmt"
	"testing"

	"pcc/internal/netem"
)

// arenaTrial is one short mixed-shape trial, parameterized enough to drag
// the arena through every reuse transition: protocol category flips
// (rate↔window senders on one flow id), PCC config changes, queue-kind
// changes (cache key change), loss on/off (lazy RNG materialization), and
// flow-count growth and shrinkage.
func arenaTrial(ts *TrialScratch, i int) float64 {
	protos := []string{"pcc", "cubic", "newreno", "sabul", "pcc", "pacing"}
	queues := []string{"droptail", "fq", "codel", "fqcodel"}
	proto := protos[i%len(protos)]
	q := queues[i%len(queues)]
	p := PathSpec{
		RateMbps:  20,
		RTT:       0.020,
		Loss:      0.002 * float64(i%3),
		BufBytes:  (30 + 10*(i%3)) * netem.KB,
		QueueKind: q,
		Seed:      TrialSeed(1234, i),
	}
	r := ts.Runner(proto+"/"+q, p)
	f := r.AddFlow(FlowSpec{Proto: proto, FlowKB: 64, RevLoss: p.Loss})
	// A varying tail of extra flows exercises flow-pool growth/shrinkage.
	for k := 0; k < i%3; k++ {
		r.AddFlow(FlowSpec{Proto: protos[(i+k+1)%len(protos)], Bucket: 1})
	}
	r.Run(2)
	sum := f.GoodputMbps(2)
	for _, g := range r.Flows[1:] {
		sum += 1e3 * g.GoodputMbps(2)
	}
	return sum
}

// TestArenaMatchesFresh is the arena's core guarantee: a trial computed on
// a warm, repeatedly reused arena is bit-identical to the same trial
// computed on a freshly built runner. The trial mix deliberately thrashes
// every reuse path (sender category flips, queue-kind changes, flow counts
// going up and down, loss streams toggling on and off).
func TestArenaMatchesFresh(t *testing.T) {
	t.Parallel()
	const trials = 36
	fresh := make([]float64, trials)
	for i := range fresh {
		// A throwaway scratch per trial: every build is a cache miss.
		fresh[i] = arenaTrial(new(TrialScratch), i)
	}
	warm := new(TrialScratch)
	for pass := 0; pass < 2; pass++ { // second pass runs fully warm
		for i := 0; i < trials; i++ {
			if got := arenaTrial(warm, i); got != fresh[i] {
				t.Fatalf("pass %d trial %d: warm arena %v != fresh %v", pass, i, got, fresh[i])
			}
		}
	}
}

// TestArenaTopologyMatchesFresh covers the routed-topology respec paths
// (multi-hop link chains, per-link RNG reseeding, route teardown when the
// route shape changes under one key, mid-run Poisson flow spawning).
func TestArenaTopologyMatchesFresh(t *testing.T) {
	t.Parallel()
	trial := func(ts *TrialScratch, i int) float64 {
		protos := []string{"pcc", "newreno", "cubic"}
		_, long, cross := parkingLotTrial(ts, 2+i%2, protos[i%len(protos)], 6, TrialSeed(77, i))
		sum := long.WindowMbps(1, 6)
		for _, c := range cross {
			sum += c.WindowMbps(1, 6)
		}
		return sum
	}
	const trials = 12
	fresh := make([]float64, trials)
	for i := range fresh {
		fresh[i] = trial(new(TrialScratch), i)
	}
	warm := new(TrialScratch)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < trials; i++ {
			if got := trial(warm, i); got != fresh[i] {
				t.Fatalf("pass %d trial %d: warm arena %v != fresh %v", pass, i, got, fresh[i])
			}
		}
	}
}

// TestArenaRouteShapeChangeUnderOneKey pins the per-flow rebuild fallback:
// the same cache key alternates between two different route shapes for the
// same flow id, so every warm build must tear down and rebuild the routes —
// with results identical to fresh builds.
func TestArenaRouteShapeChangeUnderOneKey(t *testing.T) {
	t.Parallel()
	trial := func(ts *TrialScratch, i int) float64 {
		r := revPathRunner(ts, "shared", TrialSeed(5, i))
		var fwd, rev []netem.HopSpec
		if i%2 == 0 {
			fwd = []netem.HopSpec{netem.LinkHop("fat")}
			rev = []netem.HopSpec{netem.LinkHop("thin")}
		} else {
			fwd = []netem.HopSpec{netem.DelayHop(0.004), netem.LinkHop("thin")}
			rev = []netem.HopSpec{netem.LinkHop("fat")}
		}
		f := r.AddFlow(FlowSpec{Proto: "pcc", FwdRoute: fwd, RevRoute: rev})
		r.Run(4)
		return f.GoodputMbps(4)
	}
	warm := new(TrialScratch)
	for i := 0; i < 6; i++ {
		fresh := trial(new(TrialScratch), i)
		if got := trial(warm, i); got != fresh {
			t.Fatalf("trial %d: warm arena %v != fresh %v", i, got, fresh)
		}
	}
}

// steadyAllocBudget is the allowed per-trial allocation count on a warm
// arena. A cold build of the same trials allocates thousands of objects
// (engine, topology, routes, windows, 607-word RNG registers); steady-state
// reuse must stay below this small fixed budget (per-trial closures for
// driver callbacks, the arena key string, and algorithm stubs).
const steadyAllocBudget = 100

// TestArenaSteadyStateAllocsDumbbell pins the tentpole's "second-and-later
// trials near zero setup allocations" claim for a dumbbell runner.
func TestArenaSteadyStateAllocsDumbbell(t *testing.T) {
	ts := new(TrialScratch)
	trial := func() { allocDumbbellTrial(t, ts, 9) }
	trial() // cold build
	trial() // grow retained storage to steady state
	avg := testing.AllocsPerRun(5, trial)
	t.Logf("warm dumbbell trial: %.0f allocs", avg)
	if avg > steadyAllocBudget {
		t.Errorf("warm dumbbell trial allocates %.0f objects, budget %d", avg, steadyAllocBudget)
	}
}

// allocDumbbellTrial is the dumbbell alloc tests' trial: one PCC flow over a
// lossy bottleneck, so both its PCC stream and its loss stream draw.
func allocDumbbellTrial(t *testing.T, ts *TrialScratch, seed int64) {
	r := ts.Runner("pcc", PathSpec{RateMbps: 20, RTT: 0.020, Loss: 0.001, BufBytes: 50 * netem.KB, Seed: seed})
	f := r.AddFlow(FlowSpec{Proto: "pcc", FlowKB: 64})
	r.Run(2)
	if f.GoodputMbps(2) <= 0 {
		t.Fatal("trial produced no goodput")
	}
}

// TestArenaSteadyStateAllocsTopology pins the same bound for a 3-hop
// routed-topology runner with a multi-hop route and an ACK delay hop.
func TestArenaSteadyStateAllocsTopology(t *testing.T) {
	ts := new(TrialScratch)
	spec := func() TopologySpec {
		s := TopologySpec{Seed: 11}
		for i := 0; i < 3; i++ {
			s.Links = append(s.Links, LinkSpec{
				Name: hopName(i), From: fmt.Sprintf("n%d", i), To: fmt.Sprintf("n%d", i+1),
				RateMbps: 50, Delay: 0.002, BufBytes: 100 * netem.KB,
			})
		}
		return s
	}
	fwd := []netem.HopSpec{netem.DelayHop(0.001), netem.LinkHop(hopName(0)), netem.LinkHop(hopName(1)), netem.LinkHop(hopName(2))}
	rev := []netem.HopSpec{netem.DelayHop(0.007)}
	trial := func() {
		r := ts.TopologyRunner("3hop", spec())
		f := r.AddFlow(FlowSpec{Proto: "pcc", FlowKB: 64, FwdRoute: fwd, RevRoute: rev})
		r.Run(2)
		if f.GoodputMbps(2) <= 0 {
			t.Fatal("trial produced no goodput")
		}
	}
	trial()
	trial()
	avg := testing.AllocsPerRun(5, trial)
	t.Logf("warm 3-hop trial: %.0f allocs", avg)
	if avg > steadyAllocBudget {
		t.Errorf("warm 3-hop trial allocates %.0f objects, budget %d", avg, steadyAllocBudget)
	}
}

// checkDistinctSeedAllocs measures warm trials that repeat seed 9 against
// warm trials that each use a never-seen seed. Re-seeding a stream in place
// must cost the same whatever the seed: a new seed may allocate no more than
// a repeated one, and stays within steadyAllocBudget. Each seed drives its
// own trajectory, whose queue and window high-water marks can still grow
// retained storage now and then; warming up on distinct seeds first and
// averaging over many trials (AllocsPerRun truncates) keeps that rare growth
// out of the per-trial count.
func checkDistinctSeedAllocs(t *testing.T, name string, trial func(seed int64)) {
	t.Helper()
	trial(9) // cold build
	trial(9) // grow retained storage to steady state
	repeated := testing.AllocsPerRun(20, func() { trial(9) })
	k := 0
	next := func() {
		k++
		trial(TrialSeed(9, k))
	}
	for i := 0; i < 10; i++ {
		next()
	}
	distinct := testing.AllocsPerRun(20, next)
	t.Logf("warm %s trial: %.0f allocs on a repeated seed, %.0f on distinct seeds", name, repeated, distinct)
	if distinct > repeated {
		t.Errorf("warm %s trial on a new seed allocates %.0f objects, %.0f on a repeated seed", name, distinct, repeated)
	}
	if distinct > steadyAllocBudget {
		t.Errorf("warm %s trial on a new seed allocates %.0f objects, budget %d", name, distinct, steadyAllocBudget)
	}
}

// TestArenaDistinctSeedAllocsDumbbell runs the dumbbell alloc trial on a
// fresh seed each time: its PCC stream and its loss stream re-seed every
// trial.
func TestArenaDistinctSeedAllocsDumbbell(t *testing.T) {
	ts := new(TrialScratch)
	checkDistinctSeedAllocs(t, "dumbbell", func(seed int64) { allocDumbbellTrial(t, ts, seed) })
}

// TestArenaDistinctSeedAllocsTopology runs a lossy 3-hop routed trial on a
// fresh seed each time: the PCC stream, every link's loss stream and the
// flow's lossy ACK hop re-seed every trial.
func TestArenaDistinctSeedAllocsTopology(t *testing.T) {
	ts := new(TrialScratch)
	links := make([]LinkSpec, 3)
	for i := range links {
		links[i] = LinkSpec{
			Name: hopName(i), From: fmt.Sprintf("n%d", i), To: fmt.Sprintf("n%d", i+1),
			RateMbps: 50, Delay: 0.002, Loss: 0.001, BufBytes: 100 * netem.KB,
		}
	}
	fwd := []netem.HopSpec{netem.DelayHop(0.001), netem.LinkHop(hopName(0)), netem.LinkHop(hopName(1)), netem.LinkHop(hopName(2))}
	rev := []netem.HopSpec{netem.LossyDelayHop(0.007, 0.001)}
	checkDistinctSeedAllocs(t, "3-hop", func(seed int64) {
		r := ts.TopologyRunner("3hop", TopologySpec{Links: links, Seed: seed})
		f := r.AddFlow(FlowSpec{Proto: "pcc", FlowKB: 64, FwdRoute: fwd, RevRoute: rev})
		r.Run(2)
		if f.GoodputMbps(2) <= 0 {
			t.Fatal("trial produced no goodput")
		}
	})
}

// TestArenaSteadyStateAllocsSharded pins the warm-trial budget on the shard
// axis: a sharded widechain trial reuses its shard group, per-shard engines,
// pools and arenas, and the mailbox merge scratch across trials, so
// steady-state trials stay within the same budget as single-engine runners
// (the per-trial cost is the spec/route assembly, not the sharding).
func TestArenaSteadyStateAllocsSharded(t *testing.T) {
	ts := new(TrialScratch)
	trial := func() {
		if g := RunWideChainTrial2(ts); g <= 0 {
			t.Fatal("trial produced no goodput")
		}
	}
	trial() // cold build (engines, workers, topology, flows)
	trial() // grow retained storage to steady state
	avg := testing.AllocsPerRun(5, trial)
	t.Logf("warm sharded widechain trial: %.0f allocs", avg)
	if avg > steadyAllocBudget {
		t.Errorf("warm sharded trial allocates %.0f objects, budget %d", avg, steadyAllocBudget)
	}
	if r := ts.runners["t\x004/1/pcc/2"]; r == nil || r.Group == nil {
		t.Fatal("trial did not run sharded; the budget above measured the wrong path")
	}
}

// RunWideChainTrial2 is the alloc test's small sharded trial: 4 hops, one
// cross flow per hop, 2 shards, 2 simulated seconds.
func RunWideChainTrial2(ts *TrialScratch) float64 {
	_, long, _ := wideChainTrial(ts, 4, 1, "pcc", 2.0, 13, 2)
	return long.WindowMbps(0.4, 2.0)
}

// TestSeriesMbpsIntoReuses pins the scratch-reusing series path: 0
// allocations once the destination has capacity, identical values to the
// allocating path.
func TestSeriesMbpsIntoReuses(t *testing.T) {
	t.Parallel()
	r := NewRunner(PathSpec{RateMbps: 20, RTT: 0.020, BufBytes: 50 * netem.KB, Seed: 3})
	f := r.AddFlow(FlowSpec{Proto: "pcc", Bucket: 0.5})
	r.Run(5)
	want := f.SeriesMbps()
	if len(want) == 0 {
		t.Fatal("no series")
	}
	buf := make([]float64, 0, len(want)+8)
	if avg := testing.AllocsPerRun(10, func() {
		buf = f.SeriesMbpsInto(buf)
	}); avg != 0 {
		t.Errorf("SeriesMbpsInto with warm scratch allocates %.1f objects, want 0", avg)
	}
	got := f.SeriesMbpsInto(buf)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
