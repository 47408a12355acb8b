package exp

import (
	"strings"
	"testing"

	"pcc/internal/netem"
)

// Shape tests for the routed-topology experiments: the claims EXPERIMENTS.md
// records, at reduced scale.

func TestShapeReversePathCongestion(t *testing.T) {
	t.Parallel()
	// revpath core claim: on the asymmetric pair, the thin-link flow is
	// measurably depressed by the opposing flow's ACK stream, and PCC holds
	// the fat link far better than loss-based TCP under ACK congestion.
	dur := 30.0
	ts := new(TrialScratch)
	run := func(proto string, duplex bool) (fwdT, revT float64) {
		r := revPathRunner(ts, proto, 42)
		fwd := r.AddFlow(FlowSpec{
			Proto:    proto,
			FwdRoute: []netem.HopSpec{netem.LinkHop("fat")},
			RevRoute: []netem.HopSpec{netem.LinkHop("thin")},
			Bucket:   1,
		})
		var rev *Flow
		if duplex {
			rev = r.AddFlow(FlowSpec{
				Proto:    proto,
				FwdRoute: []netem.HopSpec{netem.LinkHop("thin")},
				RevRoute: []netem.HopSpec{netem.LinkHop("fat")},
				Bucket:   1,
			})
		}
		r.Run(dur)
		fwdT = fwd.WindowMbps(0.2*dur, dur)
		if rev != nil {
			revT = rev.WindowMbps(0.2*dur, dur)
		}
		return fwdT, revT
	}

	pccSolo, _ := run("pcc", false)
	pccFwd, pccRev := run("pcc", true)
	if pccSolo < 80 {
		t.Errorf("PCC solo on the fat link = %.1f Mbps, want > 80", pccSolo)
	}
	// The PCC ACK stream at ~100 Mbps forward rate occupies ~2.7 Mbps of
	// the 10 Mbps reverse link; the opposing flow must lose at least 1.5.
	if pccRev > 8.5 {
		t.Errorf("thin-link flow = %.1f Mbps against opposing ACKs, want measurable depression (< 8.5)", pccRev)
	}
	if pccRev < 2 {
		t.Errorf("thin-link flow = %.1f Mbps, collapsed beyond plausibility", pccRev)
	}

	cubicFwd, _ := run("cubic", true)
	if pccFwd < cubicFwd {
		t.Errorf("under ACK congestion PCC fwd %.1f < CUBIC fwd %.1f; paper-shape expects PCC to tolerate a congested reverse path better", pccFwd, cubicFwd)
	}
}

func TestShapeParkingLotSqueeze(t *testing.T) {
	t.Parallel()
	// parklot core claim: a flow crossing every bottleneck gets squeezed far
	// below its single-hop competitors (compounded per-hop loss), while the
	// network itself stays near-fully utilized at every hop.
	dur := 30.0
	r, long, cross := parkingLotTrial(new(TrialScratch), 3, "pcc", dur, 42)
	longT := long.WindowMbps(0.2*dur, dur)
	var crossSum float64
	for _, c := range cross {
		crossSum += c.WindowMbps(0.2*dur, dur)
	}
	if crossSum < 3*70 {
		t.Errorf("cross flows total %.1f Mbps over 3 hops, want > 210 (links near-full)", crossSum)
	}
	if longT > crossSum/3 {
		t.Errorf("long flow %.1f Mbps vs mean cross %.1f: multi-bottleneck squeeze not visible", longT, crossSum/3)
	}
	// Per-link accounting must hold after the run (drained queues excepted —
	// conservation here is delivered+lost+dropped+still-queued ≤ offered, so
	// just assert the counters moved and aggregate into the report notes).
	notes := r.LinkNotes()
	if len(notes) != 3 {
		t.Fatalf("LinkNotes = %d entries, want 3", len(notes))
	}
	for _, n := range notes {
		if !strings.Contains(n, "delivered=") || strings.Contains(n, "fault_dropped=") {
			t.Errorf("malformed link stats note %q (want a plain row: the runner has no faults)", n)
		}
	}
}

func TestTopologyRunnerRouteInference(t *testing.T) {
	t.Parallel()
	// RTT and capacity inference from routes: narrowest link bounds the
	// capacity; propagation sums into the RTT hint.
	r := NewTopologyRunner(TopologySpec{
		Seed: 1,
		Links: []LinkSpec{
			{Name: "a", From: "A", To: "B", RateMbps: 100, Delay: 0.004, BufBytes: 250 * netem.KB},
			{Name: "b", From: "B", To: "C", RateMbps: 20, Delay: 0.006, BufBytes: 250 * netem.KB},
		},
	})
	fwd := []netem.HopSpec{netem.DelayHop(0.002), netem.LinkHop("a"), netem.LinkHop("b")}
	rev := []netem.HopSpec{netem.DelayHop(0.008)}
	if got, want := r.RouteCapacity(fwd), netem.Mbps(20); got != want {
		t.Errorf("RouteCapacity = %v, want %v", got, want)
	}
	if got, want := r.routeRTT(fwd, rev), 0.020; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("routeRTT = %v, want %v", got, want)
	}
	f := r.AddFlow(FlowSpec{Proto: "pcc", FwdRoute: fwd, RevRoute: rev})
	r.Run(20)
	if got := f.GoodputMbps(20); got < 14 {
		t.Errorf("PCC on a 20 Mbps 2-hop route = %.1f Mbps, want > 14", got)
	}
}

func TestTopologyRunnerRequiresRoutes(t *testing.T) {
	t.Parallel()
	r := NewTopologyRunner(TopologySpec{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("AddFlow without routes on a topology runner must panic")
		}
	}()
	r.AddFlow(FlowSpec{Proto: "pcc"})
}

// TestLinkNotesFormats pins the three note formats LinkNotes picks between:
// plain per-link rows, per-link rows with the fault ledger when the runner
// has a fault schedule, and the aggregate audit above maxPerLinkNotes links.
func TestLinkNotesFormats(t *testing.T) {
	t.Parallel()
	chain := func(n int) []LinkSpec {
		links := make([]LinkSpec, n)
		for i := range links {
			links[i] = LinkSpec{Name: hopName(i), From: nodeName(i), To: nodeName(i + 1), RateMbps: 10, Delay: 0.001}
		}
		return links
	}
	plain := NewTopologyRunner(TopologySpec{Links: chain(2)}).LinkNotes()
	if want := "link " + hopName(0) + ": delivered=0 wire_lost=0 queue_dropped=0"; len(plain) != 2 || plain[0] != want {
		t.Errorf("plain notes = %q, want 2 rows starting %q", plain, want)
	}
	down := &netem.FaultSchedule{Events: []netem.FaultEvent{{At: 1, Kind: netem.FaultLinkDown, Link: hopName(1)}}}
	faulted := NewTopologyRunner(TopologySpec{Links: chain(2), Faults: down}).LinkNotes()
	if want := "link " + hopName(0) + ": delivered=0 wire_lost=0 queue_dropped=0 fault_dropped=0 conserved=true"; len(faulted) != 2 || faulted[0] != want {
		t.Errorf("faulted notes = %q, want 2 rows starting %q", faulted, want)
	}
	big := NewTopologyRunner(TopologySpec{Links: chain(maxPerLinkNotes + 1)}).LinkNotes()
	if len(big) != 1 || !strings.HasPrefix(big[0], "links: 21 total, 21 conserved, 0 violated;") {
		t.Errorf("aggregate notes = %q, want one audit line for 21 links", big)
	}
}
