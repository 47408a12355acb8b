package cc

import "testing"

// fill adds [w.hi, hi) and stamps each entry with values derived from its
// seq, so later checks can tell whether an entry survived intact.
func fill(w *seqWindow, hi int64) {
	for seq := w.hi; seq < hi; seq++ {
		st := w.add(seq)
		st.sentAt = float64(seq) / 8
		st.sacked = seq%3 == 0
		st.lost = seq%5 == 0
		st.rtx = seq%7 == 0
	}
}

// checkLive asserts that every seq in [lo, hi) is tracked with the values
// fill gave it.
func checkLive(t *testing.T, w *seqWindow, lo, hi int64) {
	t.Helper()
	if w.lo != lo || w.hi != hi {
		t.Fatalf("window [%d, %d), want [%d, %d)", w.lo, w.hi, lo, hi)
	}
	for seq := lo; seq < hi; seq++ {
		st := w.lookup(seq)
		if st == nil {
			t.Fatalf("seq %d missing", seq)
		}
		want := pktState{seq: seq, sentAt: float64(seq) / 8, sacked: seq%3 == 0, lost: seq%5 == 0, rtx: seq%7 == 0}
		if *st != want {
			t.Fatalf("seq %d = %+v, want %+v", seq, *st, want)
		}
	}
}

func TestSeqWindowWrapsWithPositiveLo(t *testing.T) {
	var w seqWindow
	fill(&w, 40)
	for i := 0; i < 40; i++ {
		w.popHead()
	}
	// [40, 90) straddles the end of the 64-entry ring.
	fill(&w, 90)
	if len(w.buf) != 64 {
		t.Fatalf("ring grew to %d for 50 live entries", len(w.buf))
	}
	checkLive(t, &w, 40, 90)
	if st := w.popHead(); st.seq != 40 {
		t.Fatalf("popHead = seq %d, want 40", st.seq)
	}
	if !w.headBelow(42) || w.headBelow(41) {
		t.Fatal("headBelow disagrees with lo = 41")
	}
}

func TestSeqWindowGrowKeepsWrappedEntries(t *testing.T) {
	var w seqWindow
	fill(&w, 50)
	for i := 0; i < 50; i++ {
		w.popHead()
	}
	// Fill the ring exactly while the live run wraps, then force a grow.
	fill(&w, 50+64)
	if len(w.buf) != 64 {
		t.Fatalf("ring is %d entries before growth, want 64", len(w.buf))
	}
	fill(&w, 50+64+1)
	if len(w.buf) != 128 {
		t.Fatalf("ring is %d entries after growth, want 128", len(w.buf))
	}
	checkLive(t, &w, 50, 50+64+1)
	fill(&w, 50+1000)
	checkLive(t, &w, 50, 50+1000)
}

func TestSeqWindowLookupBounds(t *testing.T) {
	var w seqWindow
	if w.lookup(0) != nil {
		t.Fatal("lookup on an empty window returned an entry")
	}
	fill(&w, 10)
	w.popHead()
	w.popHead()
	for _, seq := range []int64{-1, 0, 1, 10, 11, 2 + 64} {
		if w.lookup(seq) != nil {
			t.Fatalf("lookup(%d) outside [2, 10) returned an entry", seq)
		}
	}
	if st := w.lookup(2); st == nil || st.seq != 2 {
		t.Fatalf("lookup(lo) = %v", st)
	}
	if st := w.lookup(9); st == nil || st.seq != 9 {
		t.Fatalf("lookup(hi-1) = %v", st)
	}
}

func TestSeqWindowAddOutOfOrderPanics(t *testing.T) {
	for _, seq := range []int64{2, 4, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("add(%d) with hi = 3 did not panic", seq)
				}
			}()
			var w seqWindow
			fill(&w, 3)
			w.add(seq)
		}()
	}
}

func TestSeqWindowResetRefillAllocatesNothing(t *testing.T) {
	var w seqWindow
	fill(&w, 5000)
	allocs := testing.AllocsPerRun(10, func() {
		w.reset()
		fill(&w, 5000)
	})
	if allocs != 0 {
		t.Fatalf("refill after reset allocated %v times", allocs)
	}
	checkLive(t, &w, 0, 5000)
	if w.outstanding() != 5000-(5000+2)/3 {
		t.Fatalf("outstanding = %d", w.outstanding())
	}
}
