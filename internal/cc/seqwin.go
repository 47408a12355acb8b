package cc

// seqWindow tracks the outstanding packets of one sender. It is the single
// implementation of the window machinery both RateSender and WindowSender
// build on. Senders add sequences densely (nextSeq, nextSeq+1, …), a
// retransmission reuses its entry, and entries leave only from the low end
// as the cumulative ACK advances, so the live sequences are always the run
// [lo, hi). The window therefore stores pktState values in a power-of-two
// ring indexed by seq&mask: a lookup is a bounds check and an index, and
// steady-state operation allocates nothing.
//
// A *pktState returned by add or lookup is valid only until the next add,
// which may grow (reallocate) the ring.
type seqWindow struct {
	buf    []pktState // len is zero or a power of two
	lo, hi int64
}

// add tracks seq, which must be hi (callers add in transmission order),
// doubling the ring when it is full.
func (w *seqWindow) add(seq int64) *pktState {
	if seq != w.hi {
		panic("cc: seqWindow.add out of order")
	}
	if w.hi-w.lo == int64(len(w.buf)) {
		w.grow()
	}
	w.hi++
	st := w.at(seq)
	*st = pktState{seq: seq}
	return st
}

// grow doubles the ring (64 entries at first), keeping every live entry at
// its seq&mask slot of the new ring.
func (w *seqWindow) grow() {
	n := 2 * len(w.buf)
	if n == 0 {
		n = 64
	}
	buf := make([]pktState, n)
	for seq := w.lo; seq < w.hi; seq++ {
		buf[seq&int64(n-1)] = *w.at(seq)
	}
	w.buf = buf
}

// at returns the entry for seq, which the caller knows lies in [lo, hi).
func (w *seqWindow) at(seq int64) *pktState { return &w.buf[seq&int64(len(w.buf)-1)] }

// lookup returns the entry tracking seq, or nil.
func (w *seqWindow) lookup(seq int64) *pktState {
	if seq < w.lo || seq >= w.hi {
		return nil
	}
	return w.at(seq)
}

// headBelow reports whether the oldest tracked entry exists and has a
// sequence below seq (the head-advance loop condition).
func (w *seqWindow) headBelow(seq int64) bool { return w.lo < w.hi && w.lo < seq }

// popHead detaches the oldest tracked entry. The returned entry stays
// readable until the next add.
func (w *seqWindow) popHead() *pktState {
	st := w.at(w.lo)
	w.lo++
	return st
}

// reset empties the window for a new flow. The ring is kept, so a reused
// sender refills to its previous peak without allocating.
func (w *seqWindow) reset() { w.lo, w.hi = 0, 0 }

// outstanding counts entries not yet SACKed.
func (w *seqWindow) outstanding() int {
	n := 0
	for seq := w.lo; seq < w.hi; seq++ {
		if !w.at(seq).sacked {
			n++
		}
	}
	return n
}
