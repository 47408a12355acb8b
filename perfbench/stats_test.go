package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestTailPercentileNearestRank(t *testing.T) {
	// 1000 samples 1..1000: p99 is the 990th value and leaves 10 above it.
	v, used := tailPercentile(seq(1000), 99)
	if v != 990 || used != 99 {
		t.Errorf("p99 of 1..1000 = %v at p%v, want 990 at p99", v, used)
	}
	v, used = tailPercentile(seq(100), 50)
	if v != 50 || used != 50 {
		t.Errorf("p50 of 1..100 = %v at p%v, want 50 at p50", v, used)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if !supported(99, 1000) || supported(99, 999) {
		t.Error("p99 needs 1000 samples to leave 10 above it")
	}
	if !supported(90, 100) || supported(90, 99) {
		t.Error("p90 needs 100 samples to leave 10 above it")
	}
	// 200 samples cannot carry p99: the highest percentile leaving ten
	// samples above it is p95 (the 190th value).
	v, used := tailPercentile(seq(200), 99)
	if used != 95 || v != 190 {
		t.Errorf("p99 of 200 samples fell back to %v at p%v, want 190 at p95", v, used)
	}
	if n := 200 - int(v); n < minBeyond {
		t.Errorf("only %d samples beyond the reported tail", n)
	}
	// Too few samples for any tail: the median stands in.
	v, used = tailPercentile(seq(15), 90)
	if used != 50 || v != 8 {
		t.Errorf("p90 of 15 samples = %v at p%v, want the median 8 at p50", v, used)
	}
	if v, _ := tailPercentile(nil, 99); v != 0 {
		t.Errorf("tail of no samples = %v, want 0", v)
	}
}

func TestSumOfMedians(t *testing.T) {
	// One slow outlier per part moves the sum of per-part medians not at
	// all, where it would move a mean.
	parts := map[string][]float64{
		"a": {1.0, 1.2, 9.0},
		"b": {2.0, 2.5, 2.2},
	}
	if got := sumOfMedians(parts, nil); !near(got, 1.2+2.2) {
		t.Errorf("sumOfMedians = %v, want 3.4", got)
	}
	if got := sumOfMedians(nil, []float64{3, 1, 2}); got != 2 {
		t.Errorf("without parts sumOfMedians = %v, want the median pass 2", got)
	}
}

func TestRateConversions(t *testing.T) {
	// 100 Mbit in 2 s is 50 Mbps; 12.5 MB in 2 s is 6.25 MB/s.
	if got := mbps(12.5e6, 2); !near(got, 50) {
		t.Errorf("mbps(12.5e6 B, 2 s) = %v, want 50", got)
	}
	if got := mbPerSec(12.5e6, 2); !near(got, 6.25) {
		t.Errorf("mbPerSec(12.5e6 B, 2 s) = %v, want 6.25", got)
	}
	// One 1500-byte packet per 120 µs is 100 Mbps.
	if got := mbps(1500, 120e-6); !near(got, 100) {
		t.Errorf("mbps(1500 B, 120 us) = %v, want 100", got)
	}
	if mbps(1, 0) != 0 || mbPerSec(1, 0) != 0 {
		t.Error("a zero interval must give 0, not Inf")
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested children count once", []interval{{110, 190}, {120, 130}}, 20},
		{"children clipped to the parent", []interval{{50, 120}, {180, 300}}, 60},
		{"child outside the parent", []interval{{0, 50}, {250, 260}}, 100},
		{"touching children", []interval{{100, 150}, {150, 200}}, 0},
	} {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRatioBases(t *testing.T) {
	c := probeCounts{
		offeredBytes: 1_000_000, queueDropBytes: 25_000,
		links: 8, conserved: 8,
		sent: 1000, rtx: 50,
		recvPkts: 980, recvUnique: 931,
		decisions: 40, inconclusive: 10,
	}
	for _, r := range []struct {
		name      string
		got, want float64
	}{
		{"queue drops per byte offered", c.queueDropRatio(), 0.025},
		{"conserved links per link", c.conservedFrac(), 1},
		{"retransmissions per transmission", c.rtxRatio(), 0.05},
		{"duplicates per packet received", c.dupRatio(), 0.05},
		{"inconclusive rounds per round", c.inconclusiveRatio(), 0.25},
	} {
		if !near(r.got, r.want) {
			t.Errorf("%s = %v, want %v", r.name, r.got, r.want)
		}
	}
	if got := (probeCounts{}).rtxRatio(); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// program prints in step: same names, units and directions, in order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}
