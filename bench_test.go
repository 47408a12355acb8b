// Package pccbench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (§4). Each benchmark runs its
// experiment at a reduced scale (benchScale) and reports the headline
// quantity the paper reports as a custom benchmark metric, so
//
//	go test -bench=. -benchmem
//
// prints both the cost of regenerating each result and the result itself.
// Full-scale runs: cmd/pccbench -exp <id> -scale 1.
package pccbench

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"pcc/internal/exp"
)

// benchScale keeps the whole bench suite tractable; shapes are preserved.
const benchScale = 0.1

const benchSeed = 42

// run regenerates one experiment at the bench scale and seed.
func run(b *testing.B, id string) *exp.Report {
	b.Helper()
	rep, err := exp.Run(id, benchScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// cell extracts a float from a report cell, tolerating "-".
func cell(rep *exp.Report, row, col int) float64 {
	if row >= len(rep.Rows) || col >= len(rep.Rows[row]) {
		return 0
	}
	v, err := strconv.ParseFloat(rep.Rows[row][col], 64)
	if err != nil {
		return 0
	}
	return v
}

// findRow returns the first row whose first cell equals key.
func findRow(rep *exp.Report, key string) int {
	for i, r := range rep.Rows {
		if len(r) > 0 && r[0] == key {
			return i
		}
	}
	return -1
}

func BenchmarkFig05Internet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig5")
		if r := findRow(rep, "cubic"); r >= 0 {
			b.ReportMetric(cell(rep, r, 2), "median_ratio_vs_cubic")
		}
	}
}

func BenchmarkTable1InterDC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "table1")
		// Average PCC throughput over the nine pairs.
		var sum float64
		for r := range rep.Rows {
			sum += cell(rep, r, 2)
		}
		b.ReportMetric(sum/float64(len(rep.Rows)), "pcc_avg_Mbps")
	}
}

func BenchmarkFig06Satellite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig6")
		last := len(rep.Rows) - 1
		pcc, hybla := cell(rep, last, 1), cell(rep, last, 2)
		if hybla > 0 {
			b.ReportMetric(pcc/hybla, "pcc_over_hybla_1MB")
		}
	}
}

func BenchmarkFig07Loss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig7")
		if r := findRow(rep, "0.010"); r >= 0 {
			b.ReportMetric(cell(rep, r, 1), "pcc_Mbps_at_1pct")
			if c := cell(rep, r, 3); c > 0 {
				b.ReportMetric(cell(rep, r, 1)/c, "pcc_over_cubic_at_1pct")
			}
		}
	}
}

func BenchmarkFig08RTTFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig8")
		if r := findRow(rep, "100.0"); r >= 0 {
			b.ReportMetric(cell(rep, r, 1), "pcc_ratio_at_100ms")
		}
	}
}

func BenchmarkFig09Buffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig9")
		if r := findRow(rep, "9.0"); r >= 0 {
			b.ReportMetric(cell(rep, r, 1), "pcc_Mbps_at_6MSS")
		}
	}
}

func BenchmarkFig10Incast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig10")
		// Mean PCC/TCP ratio across rows with >= 10 senders.
		var sum float64
		var n int
		for r := range rep.Rows {
			if cell(rep, r, 0) >= 10 {
				sum += cell(rep, r, 4)
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "pcc_over_tcp")
		}
	}
}

func BenchmarkFig11Dynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig11")
		if r := findRow(rep, "pcc"); r >= 0 {
			b.ReportMetric(cell(rep, r, 2), "pcc_frac_of_optimal")
		}
	}
}

func BenchmarkFig12Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig12")
		// Mean stddev of the PCC rows (column 3).
		var sum float64
		var n int
		for r := range rep.Rows {
			if rep.Rows[r][0] == "pcc" {
				sum += cell(rep, r, 3)
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "pcc_mean_stddev_Mbps")
		}
	}
}

func BenchmarkFig13Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig13")
		if r := findRow(rep, "pcc"); r >= 0 {
			b.ReportMetric(cell(rep, r, 2), "pcc_jain_1s")
		}
	}
}

func BenchmarkFig14Friendliness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig14")
		if len(rep.Rows) > 0 {
			b.ReportMetric(cell(rep, 0, 1), "unfriendliness_1_selfish")
		}
	}
}

func BenchmarkFig15FCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig15")
		// Median FCT at the highest load for both protocols.
		var pccMed, tcpMed float64
		for r := range rep.Rows {
			if rep.Rows[r][0] == "0.75" {
				switch rep.Rows[r][1] {
				case "pcc":
					pccMed = cell(rep, r, 3)
				case "newreno":
					tcpMed = cell(rep, r, 3)
				}
			}
		}
		if tcpMed > 0 {
			b.ReportMetric(pccMed/tcpMed, "fct_median_ratio_75load")
		}
	}
}

func BenchmarkFig16Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig16")
		if r := findRow(rep, "pcc Tm=1.0RTT eps=0.01"); r >= 0 {
			b.ReportMetric(cell(rep, r, 2), "pcc_stddev_Mbps")
		}
	}
}

func BenchmarkFig17Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "fig17")
		pcc := findRow(rep, "PCC+Bufferbloat+FQ")
		tcp := findRow(rep, "TCP+Bufferbloat+FQ")
		if pcc >= 0 && tcp >= 0 && cell(rep, tcp, 3) > 0 {
			b.ReportMetric(cell(rep, pcc, 3)/cell(rep, tcp, 3), "pcc_over_tcp_bloat_power")
		}
	}
}

func BenchmarkLossResilient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "loss50")
		if r := findRow(rep, "0.50"); r >= 0 {
			b.ReportMetric(cell(rep, r, 4), "frac_of_achievable_50pct")
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "ablation")
		if r := findRow(rep, "default (1% loss)"); r >= 0 {
			b.ReportMetric(cell(rep, r, 1), "default_1pct_Mbps")
		}
	}
}

// The Sequential/Parallel pair quantifies the worker-pool speedup on the
// trial-heavy incast experiment (results are byte-identical either way; see
// internal/exp/determinism_test.go). On an N-core machine the parallel run
// should approach N times faster.
func BenchmarkFig10IncastSequential(b *testing.B) {
	exp.SetWorkers(1)
	defer exp.SetWorkers(0)
	for i := 0; i < b.N; i++ {
		run(b, "fig10")
	}
}

func BenchmarkFig10IncastParallel(b *testing.B) {
	// Both axes of the parallelism budget (trial workers × PCC_SHARDS
	// intra-trial shards) are reported so recorded runs
	// (BENCH_*.json) say what they measured.
	b.ReportMetric(float64(exp.Workers()), "workers")
	b.ReportMetric(float64(exp.Shards()), "shards")
	for i := 0; i < b.N; i++ {
		run(b, "fig10")
	}
}

// BenchmarkWideChain measures the sharded conservative engine inside a single
// trial: the same 12-hop widechain trial at shards=1 (one engine) and
// shards=NumCPU (one engine per shard, null-message-free windowed sync).
// The reported goodput is byte-identical across sub-benchmarks — only the
// wall-clock may differ. On an N-core machine the sharded run should
// approach min(N, shards) times faster once per-round sync is amortized.
func BenchmarkWideChain(b *testing.B) {
	for _, shards := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var ts exp.TrialScratch
			var goodput float64
			for i := 0; i < b.N; i++ {
				goodput = exp.RunWideChainTrial(&ts, shards, benchSeed)
			}
			b.ReportMetric(float64(shards), "shards")
			b.ReportMetric(goodput, "long_Mbps")
		})
	}
}

// BenchmarkWANBuild isolates the generated-WAN construction path: transit-
// stub graph generation, deterministic shortest-path routing for 200
// stub-to-stub flows, and TopologySpec assembly — everything RunWAN does
// once per report before any trial runs.
func BenchmarkWANBuild(b *testing.B) {
	b.ReportAllocs()
	var nodes int
	for i := 0; i < b.N; i++ {
		sh := exp.NewWANShape(100, 200, 1, 10, benchSeed)
		nodes = sh.NumNodes()
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkWAN runs one benchmark-shaped wan trial (120 generated nodes,
// 200 routed flows, 10 simulated seconds, backbone flap active) on a
// prebuilt shape and warm arena, so it tracks the simulation cost of the
// internet-scale scenario separately from its construction cost.
func BenchmarkWAN(b *testing.B) {
	sh := exp.NewWANShape(100, 200, 1, 10, benchSeed)
	var ts exp.TrialScratch
	var agg float64
	for i := 0; i < b.N; i++ {
		agg = exp.RunWANTrial(&ts, sh, 10, benchSeed)
	}
	b.ReportMetric(agg, "agg_Mbps")
}

func BenchmarkTheoryConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "theory")
		ok := 0.0
		for r := range rep.Rows {
			if rep.Rows[r][6] == "true" {
				ok++
			}
		}
		b.ReportMetric(ok/float64(len(rep.Rows)), "converged_frac")
	}
}

func BenchmarkParkingLot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "parklot")
		// Long-flow share on the 3-hop PCC row: the multi-bottleneck squeeze.
		if r := findRow(rep, "3"); r >= 0 {
			b.ReportMetric(cell(rep, r, 2), "pcc_long_3hop_Mbps")
		}
	}
}

func BenchmarkRevPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "revpath")
		// PCC's fat-link retention under ACK congestion (duplex/solo).
		if r := findRow(rep, "pcc"); r >= 0 {
			b.ReportMetric(cell(rep, r, 5), "pcc_fwd_ratio")
		}
	}
}

func BenchmarkMixMTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, "mixmtu")
		// Cross-flow fairness when 512/1400/9000 B packets share the path.
		if r := findRow(rep, "pcc"); r >= 0 {
			b.ReportMetric(cell(rep, r, 5), "pcc_jain")
		}
	}
}
