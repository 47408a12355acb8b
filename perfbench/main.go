// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time from a seed, checks every output it produces,
// and prints its metrics by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run times each layer at its boundary instead and prints the per-layer
// ones. Run it through run.sh, which builds it inside the checkout:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in digests.json. Any
// other seed skips the digest check and keeps every other check.
const defaultSeed = 1

// nproc bounds every pool, shard group and client count the workloads use.
var nproc = runtime.NumCPU()

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json (metrics_test.go keeps the two in step).
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"units_per_s", "1/s", "higher"},
}

var perLayer = []metricDef{
	{"exp.fig6_s", "s", "lower"},
	{"exp.fig7_s", "s", "lower"},
	{"exp.fig9_s", "s", "lower"},
	{"exp.fig10_s", "s", "lower"},
	{"exp.fig12_s", "s", "lower"},
	{"exp.fig15_s", "s", "lower"},
	{"exp.parklot_s", "s", "lower"},
	{"exp.alloc_mb", "MB", "lower"},
	{"exp.wan_trial_s", "s", "lower"},
	{"exp.widechain_trial_s", "s", "lower"},
	{"exp.trial_allocs", "count", "lower"},
	{"exp.wan_shape_s", "s", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"topogen.generate_s", "s", "lower"},
	{"topogen.route_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.shard_speedup", "ratio", "higher"},
	{"sim.shard_cpu_util", "ratio", "higher"},
	{"netem.pkt_hops", "count", "lower"},
	{"netem.ns_per_pkt_hop", "ns", "lower"},
	{"netem.queue_drop_ratio", "ratio", "lower"},
	{"netem.conserved_frac", "ratio", "higher"},
	{"cc.pkts_sent", "count", "lower"},
	{"cc.rtx_ratio", "ratio", "lower"},
	{"cc.dup_ratio", "ratio", "lower"},
	{"core.ns_per_ack", "ns", "lower"},
	{"core.ns_per_send", "ns", "lower"},
	{"core.share_of_run", "ratio", "lower"},
	{"core.decisions", "count", "lower"},
	{"core.inconclusive_ratio", "ratio", "lower"},
	{"tcp.ns_per_ack", "ns", "lower"},
	{"tcp.share_of_run", "ratio", "lower"},
	{"serve.cache_get_us", "us", "lower"},
	{"serve.cache_put_ms", "ms", "lower"},
	{"serve.hit_ttfb_ms", "ms", "lower"},
	{"serve.stream_mb_per_s", "MB/s", "higher"},
	{"serve.compute_ms", "ms", "lower"},
	{"serve.miss_overhead_ms", "ms", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_p99_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.miss_p90_ms", "ms", "lower"},
	{"serve.hits", "count", "higher"},
	{"serve.misses", "count", "lower"},
	{"serve.writes", "count", "lower"},
	{"serve.corrupt", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.probe_overhead", "ratio", "lower"},
}

// metricSet collects values by metric name.
type metricSet map[string]float64

// tally counts attempted and failed operations across a run and keeps the
// first few failure reasons for standard error.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check records one operation as passed when err is nil, failed otherwise.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

// passResult is what one pass of a workload measured: wall and CPU time of
// its measured part and of each named part of it (a report, a trial), how
// many operations it ran, and a set-up sample when the pass sets up afresh
// (0 otherwise).
type passResult struct {
	wall, cpu, setup float64
	ops              int
	parts            []part
}

type part struct {
	name      string
	wall, cpu float64
}

// sumOfMedians is a pass's time as the sum over its parts of each part's
// median across passes. A burst of machine noise that slows one report in
// one pass moves that report's median less than it moves the pass's.
// Passes without parts fall back to the median pass.
func sumOfMedians(byPart map[string][]float64, whole []float64) float64 {
	if len(byPart) == 0 {
		return median(whole)
	}
	sum := 0.0
	for _, xs := range byPart {
		sum += median(xs)
	}
	return sum
}

// workload is one benchmark workload. A nil tracer means untraced.
type workload interface {
	// setUp prepares the workload, including any warm-up, and returns its
	// set-up time samples in seconds.
	setUp() ([]float64, error)
	// pass runs one measured pass, under a root span when traced.
	pass(tr *tracer) (passResult, error)
	// layers adds the per-layer metrics its traced passes recorded.
	layers(m metricSet)
	// probes returns the simulation probe trials of the workload's shape.
	probes() []probeSpec
}

func newWorkload(name string, seed int64, t *tally) (workload, error) {
	switch name {
	case "paper":
		return newPaper(seed, t), nil
	case "wan":
		return newWAN(seed, t), nil
	case "serve":
		return newServe(seed, t), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: paper, wan, serve)", name)
}

var workloadNames = []string{"paper", "wan", "serve"}

// timed runs fn and returns its wall and CPU seconds.
func timed(fn func()) (wall, cpu float64) {
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: paper, wan or serve")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	pin := flag.Bool("pin", false, "print the digests of the default-seed outputs (for digests.json) and exit")
	flag.Parse()
	if *pin {
		return printPins()
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	host := fingerprint()
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)

	t := &tally{}
	w, err := newWorkload(*name, *seed, t)
	if err != nil {
		return err
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	m, err := measure(w, float64(*seconds), tr)
	if err != nil {
		return err
	}
	defs := endToEnd
	if tr != nil {
		if err := traceLayers(*name, *seed, w, tr, t, m); err != nil {
			return err
		}
		if err := tr.write(fmt.Sprintf(".bench_build/trace-%s-seed%d.json", *name, *seed), host); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		defs = perLayer
	}
	for _, r := range t.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", r)
	}
	return printResult(t, m, defs)
}

// measure sets the workload up and runs passes until the measured phase
// has lasted the given number of seconds. Untraced it fills the end-to-end
// metrics; traced it alternates untraced and traced passes, so tracing
// overhead is the difference between their medians, and fills the
// per-layer metrics the traced passes produce.
func measure(w workload, seconds float64, tr *tracer) (metricSet, error) {
	settle()
	setups, err := w.setUp()
	if err != nil {
		return nil, err
	}
	var walls, cpus, rsss, ops, twalls []float64
	var rts []rtSample
	partWalls, partCPUs := map[string][]float64{}, map[string][]float64{}
	start := time.Now()
	minPasses := 1
	if tr != nil {
		minPasses = 2 // one untraced, one traced
	}
	for i := 0; i < minPasses || time.Since(start).Seconds() < seconds; i++ {
		var ptr *tracer
		if tr != nil && i%2 == 1 {
			ptr = tr
		}
		settle()
		rt0 := readRuntime()
		pr, err := w.pass(ptr)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		fmt.Printf("pass %d: wall %.4fs cpu %.4fs peak rss %.1fMB ops %d traced %v\n", i, pr.wall, pr.cpu, rss, pr.ops, ptr != nil)
		if pr.setup > 0 {
			setups = append(setups, pr.setup)
		}
		if ptr != nil {
			twalls = append(twalls, pr.wall)
			rts = append(rts, readRuntime().sub(rt0))
			continue
		}
		walls = append(walls, pr.wall)
		cpus = append(cpus, pr.cpu)
		for _, p := range pr.parts {
			partWalls[p.name] = append(partWalls[p.name], p.wall)
			partCPUs[p.name] = append(partCPUs[p.name], p.cpu)
		}
		rsss = append(rsss, rss)
		ops = append(ops, float64(pr.ops))
	}
	m := metricSet{}
	if tr != nil {
		var gcCPU, gcCycles, allocMB []float64
		for _, r := range rts {
			gcCPU = append(gcCPU, r.gcCPU)
			gcCycles = append(gcCycles, float64(r.gcCycles))
			allocMB = append(allocMB, float64(r.allocBytes)/1e6)
		}
		m["runtime.gc_cpu_s"] = median(gcCPU)
		m["runtime.gc_cycles"] = median(gcCycles)
		m["exp.alloc_mb"] = median(allocMB)
		m["trace.overhead_s"] = median(twalls) - median(walls)
		fmt.Printf("trace overhead: traced pass %.4fs vs untraced %.4fs (%d+%d passes)\n",
			median(twalls), median(walls), len(twalls), len(walls))
		w.layers(m)
		return m, nil
	}
	m["setup_s"] = median(setups)
	m["wall_s"] = sumOfMedians(partWalls, walls)
	m["cpu_s"] = sumOfMedians(partCPUs, cpus)
	m["peak_rss_mb"] = median(rsss)
	m["units_per_s"] = ratio(median(ops), m["wall_s"])
	fmt.Printf("measured %d passes, %d set-up samples\n", len(walls), len(setups))
	return m, nil
}

// settle returns the heap to its live set and restarts the process's
// resident-set high-water mark, so every pass starts from the same memory
// state (as go test -bench collects garbage before each benchmark) and
// VmHWM after it is that pass's own peak.
func settle() {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return // no reset available: peaks then cover the run so far
	}
	defer f.Close()
	f.Write([]byte("5")) // 5 resets VmHWM to the current RSS
}

// traceLayers completes a traced run: the simulation probes of the
// workload's own shape, then one traced pass of every other workload, so
// each traced run reports every per-layer metric. The probes and passes of
// other workloads come after the workload's own passes and do not touch
// the runtime counters measured there.
func traceLayers(name string, seed int64, w workload, tr *tracer, t *tally, m metricSet) error {
	runProbes(w.probes(), t, m)
	topogenProbe(seed, m)
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		o, err := newWorkload(other, seed, t)
		if err != nil {
			return err
		}
		if _, err := o.setUp(); err != nil {
			return err
		}
		if _, err := o.pass(tr); err != nil {
			return err
		}
		o.layers(m)
	}
	return nil
}

func printResult(t *tally, m metricSet, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if t.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	m["ok_ratio"] = float64(t.attempted-t.failed) / float64(t.attempted)
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = value{v, d.unit}
		fmt.Printf("metric %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
