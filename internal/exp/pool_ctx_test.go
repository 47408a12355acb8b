package exp

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutinesSettle polls until the process goroutine count drops back to
// at most want, failing the test if it never does. It is the counted
// goleak-style check: pool workers and watchdog goroutines must all be gone
// once a sweep returns (modulo runtime/test goroutines that existed before).
func waitGoroutinesSettle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler's books
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d still running, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepCtxCancelledMidSweep checks the core cancellation contract:
// cancelling the context stops scheduling at the next trial boundary,
// in-flight trials complete, Sweep returns a typed *SweepCancelledError
// whose Completed count matches the trials that actually ran, and the
// completed slots hold valid partial results.
func TestSweepCtxCancelledMidSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 1000
		release := make(chan struct{})
		cancelAfter := 5
		out, err := Sweep(ctx, workers, n, nil, func(i int, ts *TrialScratch) int {
			if i == cancelAfter {
				cancel()
				close(release)
			} else if i > cancelAfter {
				// Trials scheduled concurrently with the cancelling trial may
				// still run; block them briefly so at least one boundary check
				// happens after cancel() on every worker.
				select {
				case <-release:
				case <-time.After(time.Second):
				}
			}
			return i + 1
		})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: sweep of %d trials survived cancellation", workers, n)
		}
		var sc *SweepCancelledError
		if !errors.As(err, &sc) {
			t.Fatalf("workers=%d: err = %T (%v), want *SweepCancelledError", workers, err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: errors.Is(err, context.Canceled) = false", workers)
		}
		if sc.Total != n || sc.Completed <= 0 || sc.Completed >= n {
			t.Errorf("workers=%d: completed %d/%d, want a strict partial sweep", workers, sc.Completed, sc.Total)
		}
		filled := 0
		for i, v := range out {
			if v != 0 {
				if v != i+1 {
					t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i+1)
				}
				filled++
			}
		}
		if filled < sc.Completed {
			t.Errorf("workers=%d: %d filled slots < %d reported completed", workers, filled, sc.Completed)
		}
	}
}

// TestSweepCtxCompletesDespiteLateCancel: a context cancelled only after
// every trial has been claimed must not turn a fully completed sweep into an
// error.
func TestSweepCtxCompletesDespiteLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := Sweep(ctx, Workers(), 8, nil, func(i int, _ *TrialScratch) int { return i * i })
	if err != nil {
		t.Fatalf("uncancelled sweep returned %v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestSweepCtxPreCancelled: an already-dead context runs zero trials.
func TestSweepCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := Sweep(ctx, Workers(), 10, nil, func(int, *TrialScratch) bool { ran = true; return ran })
	var sc *SweepCancelledError
	if !errors.As(err, &sc) || sc.Completed != 0 {
		t.Fatalf("err = %v, want *SweepCancelledError with 0 completed", err)
	}
	if ran {
		t.Error("a trial ran under a pre-cancelled context")
	}
}

// TestSweepCtxNoGoroutineLeak: a cancelled parallel sweep must wind all
// its worker goroutines down before returning.
func TestSweepCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, _ = Sweep(ctx, 8, 64, nil, func(i int, _ *TrialScratch) int {
			if i == 3 {
				cancel()
			}
			return i
		})
		cancel()
	}
	waitGoroutinesSettle(t, before)
}

// TestTrialWatchdogTimeout checks the per-trial watchdog on both the
// sequential and pooled paths: a hung trial converts into a typed
// *TrialTimeoutError carrying the provenance the trial stamped, the sweep
// aborts, and the worker pool itself survives (a later sweep on the same
// process completes normally).
func TestTrialWatchdogTimeout(t *testing.T) {
	defer SetTrialTimeout(0)
	for _, workers := range []int{1, 4} {
		release := make(chan struct{})
		SetTrialTimeout(50 * time.Millisecond)
		_, err := Sweep(context.Background(), workers, 8, nil,
			func(i int, ts *TrialScratch) int {
				ts.Stamp("hangexp", "pcc", TrialSeed(99, i))
				if i == 2 {
					<-release // a hang the trial will never escape on its own
				}
				return i
			})
		SetTrialTimeout(0)
		var tt *TrialTimeoutError
		if err == nil || !errors.As(err, &tt) {
			close(release)
			t.Fatalf("workers=%d: err = %v, want *TrialTimeoutError", workers, err)
		}
		if tt.Experiment != "hangexp" || tt.Variant != "pcc" || tt.Trial != 2 {
			t.Errorf("workers=%d: provenance = %+v, want hangexp/pcc trial 2", workers, tt)
		}
		if tt.Seed != TrialSeed(99, 2) {
			t.Errorf("workers=%d: Seed = %d, want %d", workers, tt.Seed, TrialSeed(99, 2))
		}
		if tt.Timeout != 50*time.Millisecond {
			t.Errorf("workers=%d: Timeout = %v, want 50ms", workers, tt.Timeout)
		}
		// Unwedge the abandoned goroutine so the test process stays clean.
		close(release)

		// The pool must still be fully usable after a timeout abort.
		out := points(t, workers, 4, func(i int) int { return i })
		for i, v := range out {
			if v != i {
				t.Fatalf("workers=%d: pool broken after timeout: out[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestTrialTimeoutKnobResolution pins the watchdog knob: SetTrialTimeout
// sets the deadline, and zero or a negative duration disables it.
func TestTrialTimeoutKnobResolution(t *testing.T) {
	defer SetTrialTimeout(0)
	SetTrialTimeout(3 * time.Second)
	if got := TrialTimeout(); got != 3*time.Second {
		t.Errorf("after SetTrialTimeout(3s), TrialTimeout() = %v", got)
	}
	SetTrialTimeout(-time.Second)
	if got := TrialTimeout(); got != 0 {
		t.Errorf("after SetTrialTimeout(-1s), TrialTimeout() = %v, want 0", got)
	}
}

// TestRunKnobsIgnoreEnv: the knobs that change what a run computes or how
// it fails are set only through their Set* functions (the binaries' flags),
// never read from the environment, so nothing outside pccserve's cache key
// can change a served report.
func TestRunKnobsIgnoreEnv(t *testing.T) {
	var want *Report
	if !testing.Short() {
		var err error
		if want, err = Run("wan", 0.01, 42); err != nil {
			t.Fatal(err)
		}
	}
	workers := Workers()
	t.Setenv("PCC_NODES", "300")
	t.Setenv("PCC_FLOWS", "900")
	t.Setenv("PCC_TRIAL_TIMEOUT", "5s")
	t.Setenv("PCC_PAR", "5")
	if n, f, d := Nodes(), Flows(), TrialTimeout(); n != 0 || f != 0 || d != 0 {
		t.Errorf("with PCC_NODES/PCC_FLOWS/PCC_TRIAL_TIMEOUT set: Nodes()=%d Flows()=%d TrialTimeout()=%v, want 0 0 0", n, f, d)
	}
	if got := Workers(); got != workers {
		t.Errorf("with PCC_PAR=5 set: Workers()=%d, want %d", got, workers)
	}
	if want == nil {
		return
	}
	got, err := Run("wan", 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("wan report changed under PCC_NODES/PCC_FLOWS:\n%s\nwant:\n%s", got, want)
	}
}

// TestTrialPanicCapturesStack: the panic wrapper must carry the panicking
// goroutine's stack — including the frame that panicked — on both the
// sequential and pooled paths, so a quarantined panic is debuggable from a
// server's error ledger long after the goroutine is gone.
func TestTrialPanicCapturesStack(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tpe := sweepTrialPanic(t, workers, 4, func(i int, ts *TrialScratch) {
			ts.Stamp("stackexp", "x", TrialSeed(1, i))
			if i%2 == 1 {
				explodeForStackTest()
			}
		})
		if len(tpe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if !bytes.Contains(tpe.Stack, []byte("explodeForStackTest")) {
			t.Errorf("workers=%d: stack does not name the panicking frame:\n%s", workers, tpe.Stack)
		}
	}
}

// explodeForStackTest panics from a named function so the stack assertion
// has an unambiguous frame to look for.
func explodeForStackTest() {
	panic("boom for stack capture")
}

// TestRunCtxTheoryCancels exercises cancellation through RunCtx end to
// end. On "theory", an expired context must come back with a typed
// cancellation while a live one produces the full report. Every registered
// driver threads its context into its sweep, so a context cancelled just
// after the RunCtx boundary stops the driver before its grid is done, with
// (nil, *SweepCancelledError) rather than a report.
func TestRunCtxTheoryCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunCtx(ctx, "theory", 0.2, 42)
	var sc *SweepCancelledError
	if rep != nil || !errors.As(err, &sc) {
		t.Fatalf("cancelled RunCtx = (%v, %v), want (nil, *SweepCancelledError)", rep, err)
	}
	rep, err = RunCtx(context.Background(), "theory", 0.2, 42)
	if err != nil || rep == nil || len(rep.Rows) == 0 {
		t.Fatalf("live RunCtx(theory) = (%v, %v), want a populated report", rep, err)
	}
	if !strings.Contains(rep.String(), "Theorem") {
		t.Error("theory report lost its title")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			rep, err := RunCtx(newBoundaryCtx(), id, 0.01, 42)
			var sc *SweepCancelledError
			if rep != nil || !errors.As(err, &sc) {
				t.Fatalf("RunCtx = (%v, %v), want (nil, *SweepCancelledError)", rep != nil, err)
			}
			if sc.Completed >= sc.Total {
				t.Errorf("completed %d/%d trials, want the sweep stopped early", sc.Completed, sc.Total)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
			}
		})
	}
}

// boundaryCtx is a context that is live for its first Err check (RunCtx's
// boundary) and cancelled from the next check on. Its Done channel is
// closed from the start, so pooled workers polling it see the cancellation
// as well.
type boundaryCtx struct {
	context.Context
	checks atomic.Int32
	done   chan struct{}
}

func newBoundaryCtx() *boundaryCtx {
	c := &boundaryCtx{Context: context.Background(), done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *boundaryCtx) Done() <-chan struct{} { return c.done }

func (c *boundaryCtx) Err() error {
	if c.checks.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}
