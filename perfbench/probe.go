package main

import (
	"fmt"
	"math/rand"
	"time"

	"pcc/internal/cc"
	"pcc/internal/exp"
	"pcc/internal/netem"
	"pcc/internal/topogen"
)

// A probe is one simulation trial of a workload's shape, built on the
// harness types directly (exp.NewRunner / NewTopologyRunner + AddFlow +
// Runner.Run) so the benchmark can read the engine, link, sender and
// controller counters and time the congestion-control calls.
type probeSpec struct {
	name string
	dur  float64
	// build returns a runner with every flow added, not yet run.
	build func(shards int) *exp.Runner
	// shardable probes are also run at nproc shards for the shard metrics.
	shardable bool
}

// timedRate wraps a rate-based algorithm (PCC) and times every call the
// sender makes into it.
type timedRate struct {
	inner                cc.RateAlgo
	ackNs, sendNs, allNs int64
	acks, sends          int64
}

func (w *timedRate) Name() string { return w.inner.Name() }

func (w *timedRate) Start(now float64) {
	t0 := time.Now()
	w.inner.Start(now)
	w.allNs += time.Since(t0).Nanoseconds()
}

func (w *timedRate) Rate(now float64) float64 {
	t0 := time.Now()
	r := w.inner.Rate(now)
	w.allNs += time.Since(t0).Nanoseconds()
	return r
}

func (w *timedRate) OnSend(seq int64, size int, now float64) {
	t0 := time.Now()
	w.inner.OnSend(seq, size, now)
	d := time.Since(t0).Nanoseconds()
	w.sendNs += d
	w.allNs += d
	w.sends++
}

func (w *timedRate) OnAck(seq int64, rtt float64, now float64) {
	t0 := time.Now()
	w.inner.OnAck(seq, rtt, now)
	d := time.Since(t0).Nanoseconds()
	w.ackNs += d
	w.allNs += d
	w.acks++
}

func (w *timedRate) OnLost(seq int64, now float64) {
	t0 := time.Now()
	w.inner.OnLost(seq, now)
	w.allNs += time.Since(t0).Nanoseconds()
}

// timedWindow wraps a window-based algorithm (the TCP family).
type timedWindow struct {
	inner        cc.WindowAlgo
	ackNs, allNs int64
	acks         int64
}

func (w *timedWindow) Name() string { return w.inner.Name() }

func (w *timedWindow) OnAck(now, rtt float64, est *cc.RTTEstimator) {
	t0 := time.Now()
	w.inner.OnAck(now, rtt, est)
	d := time.Since(t0).Nanoseconds()
	w.ackNs += d
	w.allNs += d
	w.acks++
}

func (w *timedWindow) OnDupAck() {
	t0 := time.Now()
	w.inner.OnDupAck()
	w.allNs += time.Since(t0).Nanoseconds()
}

func (w *timedWindow) OnLossEvent(now float64) {
	t0 := time.Now()
	w.inner.OnLossEvent(now)
	w.allNs += time.Since(t0).Nanoseconds()
}

func (w *timedWindow) OnTimeout(now float64) {
	t0 := time.Now()
	w.inner.OnTimeout(now)
	w.allNs += time.Since(t0).Nanoseconds()
}

func (w *timedWindow) Cwnd() float64 {
	t0 := time.Now()
	c := w.inner.Cwnd()
	w.allNs += time.Since(t0).Nanoseconds()
	return c
}

// wrapFlows installs the timing wrappers on every PCC and window flow of a
// built, not yet started runner. Reset swaps the algorithm; the per-flow
// settings AddFlow applied are saved around it and restored, and the
// sender's engine, arena and wiring survive Reset.
func wrapFlows(r *exp.Runner) (rates []*timedRate, wins []*timedWindow) {
	for _, f := range r.Flows {
		switch {
		case f.RS != nil && f.PCC != nil:
			s := f.RS
			w := &timedRate{inner: f.PCC}
			fp, od, dt, mr, rh, pool, ps, trc := s.FlowPackets, s.OnDone, s.DupThresh, s.MinRate, s.RTTHint, s.Pool, s.PktSize, s.TraceRate
			s.Reset(w)
			s.FlowPackets, s.OnDone, s.DupThresh, s.MinRate, s.RTTHint, s.Pool, s.PktSize, s.TraceRate = fp, od, dt, mr, rh, pool, ps, trc
			rates = append(rates, w)
		case f.WS != nil:
			s := f.WS
			w := &timedWindow{inner: s.Algo}
			fp, od, paced, rh, dt, mc, pool, ps := s.FlowPackets, s.OnDone, s.Paced, s.RTTHint, s.DupThresh, s.MaxCwnd, s.Pool, s.PktSize
			s.Reset(w)
			s.FlowPackets, s.OnDone, s.Paced, s.RTTHint, s.DupThresh, s.MaxCwnd, s.Pool, s.PktSize = fp, od, paced, rh, dt, mc, pool, ps
			wins = append(wins, w)
		}
	}
	return rates, wins
}

// probeCounts are the simulated counts of one probe trial. They depend only
// on the simulation, never on timing, so a run with the timing wrappers
// installed must reproduce them exactly.
type probeCounts struct {
	events, pktHops                       int64
	offeredBytes, queueDropBytes          int64
	links, conserved                      int64
	sent, rtx, recvPkts, recvUnique       int64
	decisions, inconclusive, goodputBytes int64
}

func countProbe(r *exp.Runner) probeCounts {
	var c probeCounts
	for _, e := range r.Engines {
		c.events += int64(e.Processed())
	}
	for _, s := range r.Topo.Stats() {
		c.pktHops += s.Delivered
		c.offeredBytes += s.OfferedBytes
		c.queueDropBytes += s.QueueDroppedBytes
		c.links++
		if s.Conserved() {
			c.conserved++
		}
	}
	for _, f := range r.Flows {
		if f.RS != nil {
			c.sent += f.RS.Sent()
			c.rtx += f.RS.Retransmitted()
		} else {
			c.sent += f.WS.Sent()
			c.rtx += f.WS.Retransmitted()
		}
		c.recvPkts += f.Recv.TotalPackets()
		// Probe flows use the default packet size, so unique bytes over it
		// count the distinct packets delivered.
		c.recvUnique += f.Recv.UniqueBytes() / cc.MSS
		c.goodputBytes += f.Recv.UniqueBytes()
		if f.PCC != nil {
			c.decisions += f.PCC.Controller().Decisions()
			c.inconclusive += f.PCC.Controller().Inconclusive()
		}
	}
	return c
}

func (c *probeCounts) add(o probeCounts) {
	c.events += o.events
	c.pktHops += o.pktHops
	c.offeredBytes += o.offeredBytes
	c.queueDropBytes += o.queueDropBytes
	c.links += o.links
	c.conserved += o.conserved
	c.sent += o.sent
	c.rtx += o.rtx
	c.recvPkts += o.recvPkts
	c.recvUnique += o.recvUnique
	c.decisions += o.decisions
	c.inconclusive += o.inconclusive
	c.goodputBytes += o.goodputBytes
}

// The ratios and their bases.
func (c probeCounts) queueDropRatio() float64 {
	return ratio(float64(c.queueDropBytes), float64(c.offeredBytes)) // share of bytes offered to links
}
func (c probeCounts) conservedFrac() float64 {
	return ratio(float64(c.conserved), float64(c.links)) // share of links
}
func (c probeCounts) rtxRatio() float64 {
	return ratio(float64(c.rtx), float64(c.sent)) // share of transmissions
}
func (c probeCounts) dupRatio() float64 {
	return ratio(float64(c.recvPkts-c.recvUnique), float64(c.recvPkts)) // share of packets received
}
func (c probeCounts) inconclusiveRatio() float64 {
	return ratio(float64(c.inconclusive), float64(c.decisions)) // share of concluded RCT rounds
}

// runProbes runs every probe four times on fresh runners: once to warm up,
// once plain (the untraced baseline for the simulated counts and per-event
// costs), once with the timing wrappers, whose simulated counts must equal
// the plain run's, and, for shardable probes, once at nproc shards, whose
// delivered bytes must equal the plain run's.
func runProbes(specs []probeSpec, t *tally, m metricSet) {
	var total probeCounts
	var plainSec, wrappedSec, shard1Sec, shardNSec, shardNCPU float64
	var coreAckNs, coreSendNs, coreNs, acks, sends, tcpAckNs, tcpNs, tcpAcks int64
	for _, p := range specs {
		p.build(1).Run(p.dur)

		r := p.build(1)
		plainS, _ := timed(func() { r.Run(p.dur) })
		plain := countProbe(r)
		plainSec += plainS
		total.add(plain)

		r = p.build(1)
		rates, wins := wrapFlows(r)
		wrappedS, _ := timed(func() { r.Run(p.dur) })
		wrappedSec += wrappedS
		got := countProbe(r)
		if got.events != plain.events || got.pktHops != plain.pktHops || got.decisions != plain.decisions {
			t.fail("probe %s: timing wrappers changed the simulation: events %d/%d, pkt hops %d/%d, decisions %d/%d",
				p.name, got.events, plain.events, got.pktHops, plain.pktHops, got.decisions, plain.decisions)
		} else {
			t.ok()
		}
		for _, w := range rates {
			coreAckNs += w.ackNs
			coreSendNs += w.sendNs
			coreNs += w.allNs
			acks += w.acks
			sends += w.sends
		}
		for _, w := range wins {
			tcpAckNs += w.ackNs
			tcpNs += w.allNs
			tcpAcks += w.acks
		}

		if p.shardable {
			r = p.build(nproc)
			wall, cpu := timed(func() { r.Run(p.dur) })
			if got := countProbe(r); got.goodputBytes != plain.goodputBytes {
				t.fail("probe %s: %d shards delivered %d bytes, one engine %d", p.name, len(r.Engines), got.goodputBytes, plain.goodputBytes)
			} else {
				t.ok()
			}
			shard1Sec += plainS
			shardNSec += wall
			shardNCPU += cpu
		}
		fmt.Printf("probe %s: %.3fs plain, %.3fs wrapped, %.1f Mbps delivered\n",
			p.name, plainS, wrappedS, mbps(float64(plain.goodputBytes), p.dur))
	}
	m["sim.events"] = float64(total.events)
	m["sim.ns_per_event"] = ratio(plainSec*1e9, float64(total.events))
	m["sim.shard_speedup"] = ratio(shard1Sec, shardNSec)
	m["sim.shard_cpu_util"] = ratio(shardNCPU, shardNSec*float64(nproc))
	m["netem.pkt_hops"] = float64(total.pktHops)
	m["netem.ns_per_pkt_hop"] = ratio(plainSec*1e9, float64(total.pktHops))
	m["netem.queue_drop_ratio"] = total.queueDropRatio()
	m["netem.conserved_frac"] = total.conservedFrac()
	m["cc.pkts_sent"] = float64(total.sent)
	m["cc.rtx_ratio"] = total.rtxRatio()
	m["cc.dup_ratio"] = total.dupRatio()
	m["core.ns_per_ack"] = ratio(float64(coreAckNs), float64(acks))
	m["core.ns_per_send"] = ratio(float64(coreSendNs), float64(sends))
	m["core.share_of_run"] = ratio(float64(coreNs), wrappedSec*1e9)
	m["core.decisions"] = float64(total.decisions)
	m["core.inconclusive_ratio"] = total.inconclusiveRatio()
	m["tcp.ns_per_ack"] = ratio(float64(tcpAckNs), float64(tcpAcks))
	m["tcp.share_of_run"] = ratio(float64(tcpNs), wrappedSec*1e9)
	m["trace.probe_overhead"] = ratio(wrappedSec, plainSec)
}

// paperProbes are the paper workload's two shapes: a lossy dumbbell
// shared by PCC and CUBIC flows (fig6/fig7 style), and a three-hop chain
// with a long PCC flow against per-hop PCC and CUBIC cross traffic
// (parklot style) on real reverse links, so it can shard.
func paperProbes(seed int64) []probeSpec {
	dumbbell := probeSpec{name: "dumbbell", dur: 30, build: func(int) *exp.Runner {
		r := exp.NewRunner(exp.PathSpec{RateMbps: 100, RTT: 0.03, Loss: 0.005, BufBytes: 100 * netem.KB, Seed: seed})
		for i, proto := range []string{"pcc", "cubic", "pcc", "cubic"} {
			r.AddFlow(exp.FlowSpec{Proto: proto, StartAt: 0.1 * float64(i)})
		}
		return r
	}}
	chain := probeSpec{name: "chain", dur: 20, shardable: true, build: func(shards int) *exp.Runner {
		const hops = 3
		spec := exp.TopologySpec{Seed: seed, Shards: shards}
		fwd := func(i int) string { return fmt.Sprintf("f%d", i) }
		rev := func(i int) string { return fmt.Sprintf("r%d", i) }
		node := func(i int) string { return fmt.Sprintf("n%d", i) }
		for i := 0; i < hops; i++ {
			d := 0.004 + 0.0004*float64(i)
			spec.Links = append(spec.Links,
				exp.LinkSpec{Name: fwd(i), From: node(i), To: node(i + 1), RateMbps: 100, Delay: d, BufBytes: 200 * netem.KB},
				exp.LinkSpec{Name: rev(i), From: node(i + 1), To: node(i), RateMbps: 1000, Delay: d, BufBytes: 200 * netem.KB})
		}
		r := exp.NewTopologyRunner(spec)
		const access = 0.002
		longF := []netem.HopSpec{netem.DelayHop(access)}
		var longR []netem.HopSpec
		for i := 0; i < hops; i++ {
			longF = append(longF, netem.LinkHop(fwd(i)))
			longR = append(longR, netem.LinkHop(rev(hops-1-i)))
		}
		longR = append(longR, netem.DelayHop(access))
		r.AddFlow(exp.FlowSpec{Proto: "pcc", FwdRoute: longF, RevRoute: longR})
		for i := 0; i < hops; i++ {
			for j, proto := range []string{"pcc", "cubic"} {
				r.AddFlow(exp.FlowSpec{
					Proto:    proto,
					FwdRoute: []netem.HopSpec{netem.DelayHop(access), netem.LinkHop(fwd(i))},
					RevRoute: []netem.HopSpec{netem.LinkHop(rev(i)), netem.DelayHop(access)},
					StartAt:  0.05 + 0.013*float64(2*i+j),
				})
			}
		}
		return r
	}}
	return []probeSpec{dumbbell, chain}
}

// wanGraph generates the wan workload's transit-stub graph: the spec
// exp.NewWANShape uses for wanNodes nodes.
func wanGraph() *topogen.Graph {
	return topogen.TransitStub(topogen.TransitStubSpec{
		Transits: 4, TransitRouters: 3, StubsPerRouter: (wanNodes - 12 + 35) / 36, StubRouters: 3,
		TransitRateMbps: 400, StubRateMbps: 40, Seed: 1,
	})
}

// wanRoutes routes flows stub-to-stub pairs drawn from seed over g,
// returning forward and reverse hop chains with a last-mile delay hop.
func wanRoutes(g *topogen.Graph, flows int, seed int64) (fwd, rev [][]netem.HopSpec) {
	var stubs []string
	for _, name := range g.Nodes() {
		if name[0] == 's' {
			stubs = append(stubs, name)
		}
	}
	router := topogen.NewRouter(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < flows; k++ {
		src := stubs[rng.Intn(len(stubs))]
		dst := stubs[rng.Intn(len(stubs))]
		for dst == src {
			dst = stubs[rng.Intn(len(stubs))]
		}
		access := netem.DelayHop(0.0005 + 0.002*rng.Float64())
		fwd = append(fwd, append([]netem.HopSpec{access}, router.Route(src, dst)...))
		rev = append(rev, append(router.Route(dst, src), access))
	}
	return fwd, rev
}

// wanProbes is the wan workload's shape: the generated WAN with its routed
// flows alternating PCC and CUBIC and the x0 backbone flap.
func wanProbes(seed int64) []probeSpec {
	g := wanGraph()
	fwd, rev := wanRoutes(g, wanFlows, seed)
	return []probeSpec{{name: "wan", dur: wanDur, shardable: true, build: func(shards int) *exp.Runner {
		spec := exp.GraphSpec(g, seed, shards)
		spec.Faults = &netem.FaultSchedule{Flaps: []netem.FlapSpec{{
			Link: "x0", FirstDownAt: 0.3 * wanDur, DownDur: 0.25, UpDur: 1.0, Jitter: 0.3, Until: 0.7 * wanDur,
		}}}
		r := exp.NewTopologyRunner(spec)
		for k := range fwd {
			proto := "pcc"
			if k%2 == 1 {
				proto = "cubic"
			}
			r.AddFlow(exp.FlowSpec{Proto: proto, FwdRoute: fwd[k], RevRoute: rev[k],
				StartAt: 0.2 * wanDur * float64(k) / float64(len(fwd))})
		}
		return r
	}}}
}

// topogenProbe times the wan shape's topology layer on its own: transit
// stub generation, and router construction plus shortest-path routing of
// every flow, each the median of several builds.
func topogenProbe(seed int64, m metricSet) {
	const builds = 5
	var gen, route []float64
	for i := 0; i < builds; i++ {
		var g *topogen.Graph
		sec, _ := timed(func() { g = wanGraph() })
		gen = append(gen, sec)
		sec, _ = timed(func() { wanRoutes(g, wanFlows, seed) })
		route = append(route, sec)
	}
	m["topogen.generate_s"] = median(gen)
	m["topogen.route_s"] = median(route)
}
