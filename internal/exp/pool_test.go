package exp

import (
	"context"
	"errors"
	"sync"
	"testing"

	"pcc/internal/netem"
)

// points runs fn over [0, n) through Sweep under a live context and fails
// the test on any sweep error.
func points[T any](t testing.TB, workers, n int, fn func(i int) T) []T {
	t.Helper()
	out, err := Sweep(context.Background(), workers, n, nil, func(i int, _ *TrialScratch) T { return fn(i) })
	if err != nil {
		t.Fatalf("Sweep(workers=%d, n=%d): %v", workers, n, err)
	}
	return out
}

func TestSweepOrder(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 7, 32} {
		out := points(t, workers, 100, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := points(t, 4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("n=0 returned %d results", len(got))
	}
	// An explicit order changes only which worker runs what when, never
	// where a result lands.
	order := descendingBy(50, func(i int) int { return i % 7 })
	for _, workers := range []int{1, 4} {
		out, err := Sweep(context.Background(), workers, len(order), order, func(i int, _ *TrialScratch) int { return i * i })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("ordered, workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSweepPanicPropagates(t *testing.T) {
	t.Parallel()
	_, err := Sweep(context.Background(), 4, 16, nil, func(i int, _ *TrialScratch) int {
		if i == 11 {
			panic("boom")
		}
		return i
	})
	var tpe *TrialPanicError
	if !errors.As(err, &tpe) || tpe.Trial != 11 {
		t.Fatalf("err = %v, want the *TrialPanicError of trial 11", err)
	}
}

func TestWorkersResolution(t *testing.T) {
	// Not parallel: mutates the global override.
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("SetWorkers(3) → Workers() = %d", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("automatic resolution must yield at least one worker, got %d", got)
	}
	SetWorkers(2)
	if got := Workers(); got != 2 {
		t.Fatalf("SetWorkers(2) → Workers() = %d", got)
	}
}

// stressTrial runs one tiny self-contained simulation. Mixing protocols
// exercises rate-based and window-based senders, both queue families, and
// the per-runner packet pool.
func stressTrial(i int) float64 {
	protos := []string{"pcc", "cubic", "newreno", "sabul"}
	queues := []string{"droptail", "fq"}
	r := NewRunner(PathSpec{
		RateMbps:  20,
		RTT:       0.020,
		Loss:      0.001 * float64(i%3),
		BufBytes:  50 * netem.KB,
		QueueKind: queues[i%len(queues)],
		Seed:      TrialSeed(99, i),
	})
	f := r.AddFlow(FlowSpec{Proto: protos[i%len(protos)], FlowKB: 64})
	r.Run(2)
	return f.GoodputMbps(2)
}

// TestPoolStressTinyTrials pushes many tiny trials through a wide pool and
// checks the results bit-match a sequential run. Under -race (the CI race
// job runs this package in short mode) it doubles as the shared-state
// detector for the engine, netem, and the packet free lists.
func TestPoolStressTinyTrials(t *testing.T) {
	t.Parallel()
	trials := 96
	if testing.Short() {
		trials = 32
	}
	want := points(t, 1, trials, stressTrial)
	for _, workers := range []int{4, 16} {
		got := points(t, workers, trials, stressTrial)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d trial %d: got %v, want %v (parallel run diverged)", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPoolConcurrentUse runs several pools at once — the situation of
// parallel t.Parallel tests each fanning out trials — to verify the pool
// itself keeps no shared state beyond the worker-count knob.
func TestPoolConcurrentUse(t *testing.T) {
	t.Parallel()
	const users = 4
	var wg sync.WaitGroup
	errs := make(chan string, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := Sweep(context.Background(), 4, 12, nil, func(i int, _ *TrialScratch) float64 { return stressTrial(i) })
			if err != nil {
				errs <- err.Error()
				return
			}
			for i, v := range out {
				if v != stressTrial(i) {
					errs <- "concurrent pool user got divergent result"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
