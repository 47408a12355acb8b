package netem_test

import (
	"testing"

	"pcc/internal/netem"
	"pcc/internal/sim"
)

// BenchmarkLinkForward measures the per-packet cost of the store-and-forward
// path (enqueue → serialize → deliver) with packet recycling through the
// engine-local free list. This is the inner loop under every experiment.
func BenchmarkLinkForward(b *testing.B) {
	eng := sim.NewEngine()
	pool := &netem.PacketPool{}
	l := netem.NewLink(eng, netem.NewDropTail(64*netem.KB), netem.Mbps(1000), 0.0001, 0, 0)
	l.Pool = pool
	delivered := 0
	l.Sink = func(p *netem.Packet) {
		delivered++
		pool.Put(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	var feed func()
	feed = func() {
		if sent >= b.N {
			return
		}
		p := pool.Get()
		p.Flow, p.Seq, p.Size = 0, int64(sent), 1500
		sent++
		l.Send(p)
		// Feed at exactly the serialization rate so the queue stays shallow.
		eng.Post(1500/netem.Mbps(1000), feed)
	}
	eng.Post(0, feed)
	eng.Run()
	if delivered == 0 {
		b.Fatal("no packets delivered")
	}
}

// BenchmarkDeepBDP is the heap-depth stress the delay pipes exist for: a
// single flow pushed at line rate through a 1 Gbps link with a 500 ms
// propagation delay and an effectively unlimited buffer, so tens of
// thousands of packets are in flight at steady state. Before the per-link
// pipe each of them was a scheduler event (O(log BDP) per packet); with the
// pipe they share one self-rearming slot and per-packet work is O(1) and
// 0 allocs/op.
func BenchmarkDeepBDP(b *testing.B) {
	eng := sim.NewEngine()
	pool := &netem.PacketPool{}
	l := netem.NewLink(eng, netem.NewDropTail(-1), netem.Mbps(1000), 0.5, 0, 0)
	l.Pool = pool
	delivered := 0
	l.Sink = func(p *netem.Packet) {
		delivered++
		pool.Put(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	var feed func()
	feed = func() {
		if sent >= b.N {
			return
		}
		p := pool.Get()
		p.Flow, p.Seq, p.Size = 0, int64(sent), 1500
		sent++
		l.Send(p)
		// Feed at exactly the serialization rate: the 500 ms pipe holds
		// ~41k packets at steady state.
		eng.Post(1500/netem.Mbps(1000), feed)
	}
	eng.Post(0, feed)
	eng.Run()
	if delivered == 0 {
		b.Fatal("no packets delivered")
	}
}

// BenchmarkTopologyForward3Hop measures the per-packet cost of a routed
// 3-hop path (access delay hop + three store-and-forward links) through a
// general Topology. The multi-hop fast path must stay 0 allocs/op: all
// route scheduling is closure-free and every delivery recycles through the
// engine-local free list.
func BenchmarkTopologyForward3Hop(b *testing.B) {
	eng := sim.NewEngine()
	pool := &netem.PacketPool{}
	topo := netem.NewTopology(eng)
	topo.UsePool(pool)
	nodes := []string{"A", "B", "C", "D"}
	for i := 0; i < 3; i++ {
		topo.AddLink(nodes[i]+nodes[i+1], nodes[i], nodes[i+1],
			netem.NewDropTail(64*netem.KB), netem.Mbps(1000), 0.0001, 0, 0)
	}
	delivered := 0
	topo.AddFlow(0,
		[]netem.HopSpec{netem.DelayHop(0.0001), netem.LinkHop("AB"), netem.LinkHop("BC"), netem.LinkHop("CD")},
		[]netem.HopSpec{netem.DelayHop(0.0001)},
		sim.NewSeeds(1),
		func(p *netem.Packet) {
			delivered++
			pool.Put(p)
		},
		nil)
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	var feed func()
	feed = func() {
		if sent >= b.N {
			return
		}
		p := pool.Get()
		p.Flow, p.Seq, p.Size = 0, int64(sent), 1500
		sent++
		topo.SendData(p)
		// Feed at exactly the serialization rate so queues stay shallow.
		eng.Post(1500/netem.Mbps(1000), feed)
	}
	eng.Post(0, feed)
	eng.Run()
	if delivered == 0 {
		b.Fatal("no packets delivered")
	}
}
