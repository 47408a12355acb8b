package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"pcc/internal/exp"
)

// paperIDs are the registered experiments the paper workload runs, in
// order: the dumbbell sweeps behind the paper's headline figures plus the
// multi-hop parking lot, thousands of small trials through the pool and the
// trial arenas.
var paperIDs = []string{"fig6", "fig7", "fig9", "fig10", "fig12", "fig15", "parklot"}

// paperScale keeps each experiment at its duration floors: a pass is a few
// seconds, short enough to repeat several times in one run.
const paperScale = 0.05

// paperSeeds is how many experiment seeds the passes cycle through: pass k
// runs root seed exp.TrialSeed(seed, k mod paperSeeds). A report's cost and
// the pass's peak memory move with the seed, so a run's medians rest on
// several seeds rather than one.
const paperSeeds = 4

//go:embed digests.json
var digestsJSON []byte

// pinned holds the sha256 of every default-seed output, by workload and
// output name.
type pinned map[string]map[string]string

func loadPins() pinned {
	var p pinned
	if err := json.Unmarshal(digestsJSON, &p); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err)) // embedded at build time
	}
	return p
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// outputChecker checks the outputs of one workload: every output must
// equal the first one seen under its name in this run (the program is
// deterministic), and at the default seed it must match its pinned digest.
type outputChecker struct {
	workload string
	pins     map[string]string // nil at non-default seeds
	first    map[string]string
}

func newOutputChecker(workload string, seed int64) *outputChecker {
	c := &outputChecker{workload: workload, first: make(map[string]string)}
	if seed == defaultSeed {
		c.pins = loadPins()[workload]
	}
	return c
}

func (c *outputChecker) check(name, out string) error {
	if prev, ok := c.first[name]; ok {
		if prev != out {
			return fmt.Errorf("%s %s: output differs from the first pass", c.workload, name)
		}
		return nil
	}
	c.first[name] = out
	if c.pins == nil {
		return nil
	}
	if want := c.pins[name]; digest(out) != want {
		return fmt.Errorf("%s %s: sha256 %s, pinned %s", c.workload, name, digest(out), want)
	}
	return nil
}

// checkReport scans a report for the conservation failures drivers print.
func checkReport(id, text string) error {
	if strings.Contains(text, "conserved=false") || strings.Contains(text, "VIOLATED") {
		return fmt.Errorf("report %s shows a conservation violation", id)
	}
	if !strings.HasPrefix(text, "== "+id+":") {
		return fmt.Errorf("report %s is malformed", id)
	}
	return nil
}

// paper runs the registered experiments through exp.Run, as pccbench -exp
// does, with nproc trial workers and one shard.
type paper struct {
	seed   int64
	t      *tally
	check  *outputChecker
	passes int
	// reportSec holds each report's wall seconds in traced passes.
	reportSec map[string][]float64
}

func newPaper(seed int64, t *tally) *paper {
	return &paper{seed: seed, t: t, check: newOutputChecker("paper", seed),
		reportSec: make(map[string][]float64)}
}

// setUp runs the cold first pass, arenas built from empty: what one
// pccbench invocation pays before any warm pass. It is the workload's
// set-up time and its warm-up.
func (p *paper) setUp() ([]float64, error) {
	pr, err := p.pass(nil)
	return []float64{pr.wall}, err
}

func (p *paper) pass(tr *tracer) (passResult, error) {
	exp.SetWorkers(nproc)
	exp.SetShards(1)
	root := tr.begin("pass.paper", 0)
	defer tr.end(root)
	k := p.passes % paperSeeds
	p.passes++
	seed := exp.TrialSeed(p.seed, k)
	pr := passResult{ops: len(paperIDs)}
	reports := make([]*exp.Report, len(paperIDs))
	errs := make([]error, len(paperIDs))
	pr.wall, pr.cpu = timed(func() {
		for i, id := range paperIDs {
			sp := tr.begin("exp."+id, root)
			wall, cpu := timed(func() { reports[i], errs[i] = exp.Run(id, paperScale, seed) })
			tr.end(sp)
			pr.parts = append(pr.parts, part{id, wall, cpu})
			if tr != nil {
				p.reportSec[id] = append(p.reportSec[id], wall)
			}
		}
	})
	for i, id := range paperIDs {
		if errs[i] != nil {
			p.t.fail("report %s: %v", id, errs[i])
			continue
		}
		text := reports[i].String()
		if err := checkReport(id, text); err != nil {
			p.t.check(err)
			continue
		}
		p.t.check(p.check.check(fmt.Sprintf("%s/%d", id, k), text))
	}
	return pr, nil
}

func (p *paper) layers(m metricSet) {
	for _, id := range paperIDs {
		m["exp."+id+"_s"] = median(p.reportSec[id])
	}
}

func (p *paper) probes() []probeSpec { return paperProbes(p.seed) }

// printPins prints digests.json for the current code: the default-seed
// outputs of the paper and wan workloads.
func printPins() error {
	p := newPaper(defaultSeed, &tally{})
	for k := 0; k < paperSeeds; k++ {
		if _, err := p.pass(nil); err != nil {
			return err
		}
	}
	w := newWAN(defaultSeed, &tally{})
	if _, err := w.setUp(); err != nil {
		return err
	}
	for k := 1; k < wanTrialSeeds; k++ {
		if _, err := w.pass(nil); err != nil {
			return err
		}
	}
	out := pinned{"paper": {}, "wan": {}}
	for name, v := range p.check.first {
		out["paper"][name] = digest(v)
	}
	for name, v := range w.check.first {
		out["wan"][name] = digest(v)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
