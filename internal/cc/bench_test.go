package cc

import (
	"fmt"
	"testing"

	"pcc/internal/netem"
	"pcc/internal/sim"
)

// benchFlights are the outstanding-packet counts the per-ACK rows run at: a
// short-RTT flight and a deep-BDP one.
var benchFlights = []int{64, 4096}

// ackOldest hands the sender the ACK of its oldest outstanding packet, the
// in-order delivery case: the packet is SACKed and the cumulative point
// moves past it.
func ackOldest(pool *netem.PacketPool, seq int64, onAck func(*netem.Packet)) {
	p := pool.Get()
	p.SackSeq, p.CumAck = seq, seq+1
	onAck(p)
}

// BenchmarkRateSenderAck measures one RateSender ACK (SACK lookup, head
// advance, loss scan) plus the transmission it makes room for, with the
// given number of packets outstanding. The engine never runs, so the cost
// is the sender's alone; packets recycle through one pool.
func BenchmarkRateSenderAck(b *testing.B) {
	for _, n := range benchFlights {
		b.Run(fmt.Sprintf("outstanding=%d", n), func(b *testing.B) {
			eng := sim.NewEngine()
			pool := &netem.PacketPool{}
			s := NewRateSender(eng, 0, &fixedRate{r: 1e9}, pool.Put)
			s.Pool = pool
			s.sendLoop() // arms the pacing timer, so OnAck never sends itself
			for s.nextSeq < int64(n) {
				s.sendOne(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ackOldest(pool, int64(i), s.OnAck)
				s.sendOne(0)
			}
			if s.win.hi-s.win.lo != int64(n) {
				b.Fatalf("%d outstanding, want %d", s.win.hi-s.win.lo, n)
			}
		})
	}
}

// BenchmarkWindowSenderAck measures one WindowSender ACK plus the
// transmission its window opening clocks out, with a fixed window of the
// given number of packets outstanding.
func BenchmarkWindowSenderAck(b *testing.B) {
	for _, n := range benchFlights {
		b.Run(fmt.Sprintf("outstanding=%d", n), func(b *testing.B) {
			eng := sim.NewEngine()
			pool := &netem.PacketPool{}
			s := NewWindowSender(eng, 0, &fixedWindow{w: float64(n)}, pool.Put)
			s.Pool = pool
			s.Start()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ackOldest(pool, int64(i), s.OnAck)
			}
			if s.win.hi-s.win.lo != int64(n) {
				b.Fatalf("%d outstanding, want %d", s.win.hi-s.win.lo, n)
			}
		})
	}
}
