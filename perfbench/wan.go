package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"pcc/internal/exp"
)

// The wan workload's shape: a generated transit-stub WAN of about 500 nodes
// with wanFlows routed stub-to-stub flows and a backbone flap, simulated for
// wanDur seconds. Many flows over a short run keep the heap deep while the
// trial's cost depends little on which stub pairs the seed draws.
const (
	wanNodes = 500
	wanFlows = 200
	wanDur   = 1.0
	// wanShapeBuilds is how many times set-up builds the shape; set-up time
	// is their median.
	wanShapeBuilds = 15
	// wanTrialSeeds is how many trial seeds the passes cycle through, so a
	// run's median rests on several simulations rather than one.
	wanTrialSeeds = 8
	// wideChainHopMbps is the rate of each forward hop of the wide chain,
	// the most its long flow can carry.
	wideChainHopMbps = 100
)

// wan runs warm large trials with one worker and nproc shards: the
// generated-WAN trial and the 12-hop wide-chain trial.
type wan struct {
	seed  int64
	t     *tally
	check *outputChecker
	sh    *exp.WANShape
	ts    exp.TrialScratch
	// passes counts the passes run; pass k runs trial seed k mod
	// wanTrialSeeds.
	passes int
	// traced samples: per-trial wall seconds and allocated objects, shape
	// build seconds.
	wanSec, wcSec, trialAllocs, shapeSec []float64
}

func newWAN(seed int64, t *tally) *wan {
	return &wan{seed: seed, t: t, check: newOutputChecker("wan", seed)}
}

// setUp builds the shape wanShapeBuilds times (topogen generation and
// shortest-path routing of every flow) and runs one warm-up pass that
// builds the trial arenas.
func (w *wan) setUp() ([]float64, error) {
	var samples []float64
	for i := 0; i < wanShapeBuilds; i++ {
		t0 := time.Now()
		w.sh = exp.NewWANShape(wanNodes, wanFlows, nproc, wanDur, w.seed)
		samples = append(samples, time.Since(t0).Seconds())
	}
	w.shapeSec = samples
	_, err := w.pass(nil)
	return samples, err
}

func (w *wan) pass(tr *tracer) (passResult, error) {
	root := tr.begin("pass.wan", 0)
	defer tr.end(root)
	k := w.passes % wanTrialSeeds
	w.passes++
	seed := exp.TrialSeed(w.seed, k)
	var agg, wc float64
	pr := passResult{ops: 2}
	trial := func(name string, fn func()) {
		sp := tr.begin("exp."+name, root)
		rt0 := readRuntime()
		wall, cpu := timed(fn)
		if tr != nil {
			w.trialAllocs = append(w.trialAllocs, float64(readRuntime().sub(rt0).allocObjs))
		}
		tr.end(sp)
		pr.parts = append(pr.parts, part{name, wall, cpu})
	}
	pr.wall, pr.cpu = timed(func() {
		trial("wan_trial", func() { agg = exp.RunWANTrial(&w.ts, w.sh, wanDur, seed) })
		trial("widechain_trial", func() { wc = exp.RunWideChainTrial(&w.ts, nproc, seed) })
	})
	if tr != nil {
		w.wanSec = append(w.wanSec, pr.parts[0].wall)
		w.wcSec = append(w.wcSec, pr.parts[1].wall)
	}
	// The WAN aggregate sums 200 flows and is never 0. The wide chain's
	// long flow crosses twelve 100 Mbps hops against 24 cross flows and
	// starves on some seeds (the parklot limitation at depth), so 0 Mbps is
	// a valid result there; more than one hop's rate is not.
	for _, r := range []struct {
		name string
		v    float64
		ok   bool
	}{
		{"wan_trial", agg, agg > 0 && !math.IsInf(agg, 1)},
		{"widechain_trial", wc, wc >= 0 && wc <= wideChainHopMbps},
	} {
		if !r.ok {
			w.t.fail("wan %s: goodput %v Mbps outside its range", r.name, r.v)
			continue
		}
		w.t.check(w.check.check(fmt.Sprintf("%s/%d", r.name, k), strconv.FormatFloat(r.v, 'g', -1, 64)))
	}
	return pr, nil
}

func (w *wan) layers(m metricSet) {
	m["exp.wan_trial_s"] = median(w.wanSec)
	m["exp.widechain_trial_s"] = median(w.wcSec)
	m["exp.trial_allocs"] = median(w.trialAllocs)
	m["exp.wan_shape_s"] = median(w.shapeSec)
}

func (w *wan) probes() []probeSpec { return wanProbes(w.seed) }
