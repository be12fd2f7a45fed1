package netcache_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"netcache"
)

// TestRunBatchMatchesSequential checks the public batch entry point returns
// results bit-identical to sequential Run calls, in spec order, at any
// worker count.
func TestRunBatchMatchesSequential(t *testing.T) {
	specs := []netcache.RunSpec{
		{App: "sor", System: netcache.SystemNetCache, Scale: 0.06},
		{App: "sor", System: netcache.SystemLambdaNet, Scale: 0.06},
		{App: "gauss", System: netcache.SystemDMONU, Scale: 0.06},
		{App: "gauss", System: netcache.SystemDMONI, Scale: 0.06},
	}
	want := make([]netcache.Result, len(specs))
	for i, spec := range specs {
		var err error
		want[i], err = netcache.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		got := netcache.RunBatch(context.Background(), netcache.BatchOptions{Workers: workers}, specs)
		for i := range specs {
			if got[i].Err != nil {
				t.Fatalf("workers=%d spec %d: %v", workers, i, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].Result, want[i]) {
				t.Fatalf("workers=%d: batch result %d differs from sequential run", workers, i)
			}
		}
	}
}

// TestRunBatchOnDone checks the progress callback reports each execution
// once: equal specs share one call, on their first index, and a failing
// spec reports its error.
func TestRunBatchOnDone(t *testing.T) {
	spec := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.06}
	bad := netcache.RunSpec{App: "no-such-app", System: netcache.SystemNetCache, Scale: 0.06}
	var mu sync.Mutex
	calls := map[int]error{}
	got := netcache.RunBatch(context.Background(), netcache.BatchOptions{
		Workers: 2,
		OnDone: func(index int, _ netcache.RunSpec, _ netcache.Result, err error, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			calls[index] = err
		},
	}, []netcache.RunSpec{spec, spec, bad})
	if len(calls) != 2 {
		t.Fatalf("OnDone called for indexes %v, want 0 and 2", calls)
	}
	if err, ok := calls[0]; !ok || err != nil {
		t.Fatalf("OnDone for the shared spec: called %v, err %v", ok, err)
	}
	if err, ok := calls[2]; !ok || err == nil {
		t.Fatalf("OnDone for the bad spec: called %v, err %v", ok, err)
	}
	if got[0].Err != nil || !reflect.DeepEqual(got[0].Result, got[1].Result) {
		t.Fatal("equal specs did not share one result")
	}
}

// TestRunBatchPartialFailure checks one bad spec doesn't poison its
// neighbours.
func TestRunBatchPartialFailure(t *testing.T) {
	specs := []netcache.RunSpec{
		{App: "sor", System: netcache.SystemNetCache, Scale: 0.06},
		{App: "no-such-app", System: netcache.SystemNetCache, Scale: 0.06},
	}
	got := netcache.RunBatch(context.Background(), netcache.BatchOptions{Workers: 2}, specs)
	if got[0].Err != nil {
		t.Fatalf("healthy spec failed: %v", got[0].Err)
	}
	if got[1].Err == nil {
		t.Fatal("unknown app did not error")
	}
}

// TestRunBatchMidBatchCancellation cancels a batch after its first result:
// completed entries keep their results, every remaining entry — running or
// never started — fails with context.Canceled and an empty Result (a
// singleflight group whose leader was cancelled must not fabricate results
// for its members), and the pool's goroutines all join.
func TestRunBatchMidBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	long := netcache.RunSpec{App: "gauss", System: netcache.SystemNetCache, Scale: 0.5}
	specs := []netcache.RunSpec{
		{App: "sor", System: netcache.SystemNetCache, Scale: 0.06},
		long, long, long,
	}
	got := netcache.RunBatch(ctx, netcache.BatchOptions{
		Workers: 2,
		OnDone: func(index int, _ netcache.RunSpec, _ netcache.Result, _ error, _ time.Duration) {
			if index == 0 {
				cancel()
			}
		},
	}, specs)
	if got[0].Err != nil {
		t.Fatalf("completed spec lost its result: %v", got[0].Err)
	}
	if got[0].Result.Cycles == 0 {
		t.Fatal("completed spec returned an empty result")
	}
	for i := 1; i < len(specs); i++ {
		if !errors.Is(got[i].Err, context.Canceled) {
			t.Errorf("spec %d error = %v, want context.Canceled", i, got[i].Err)
		}
		if got[i].Result.Cycles != 0 {
			t.Errorf("cancelled spec %d delivered a result", i)
		}
	}
	// The engine joins every processor goroutine on abort; give the
	// runtime a moment to retire them.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked across cancelled batch: %d before, %d after", before, n)
	}
}

// TestRunContextCancellation checks an already-cancelled context aborts a
// run promptly with an error wrapping context.Canceled.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := netcache.RunContext(ctx, netcache.RunSpec{
		App: "gauss", System: netcache.SystemNetCache, Scale: 0.25,
	})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("cancelled run took %v, not prompt", wall)
	}
}

// TestRunContextTimeout checks a deadline aborts a run with
// context.DeadlineExceeded.
func TestRunContextTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := netcache.RunContext(ctx, netcache.RunSpec{
		App: "gauss", System: netcache.SystemNetCache, Scale: 1.0,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap DeadlineExceeded: %v", err)
	}
}

// TestRunContextBackgroundIdentical checks the context plumbing itself
// cannot perturb a run: RunContext with a cancellable-but-never-cancelled
// context matches plain Run bit for bit.
func TestRunContextBackgroundIdentical(t *testing.T) {
	spec := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.06}
	plain, err := netcache.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := netcache.RunContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withCtx) {
		t.Fatal("RunContext with live context differs from Run")
	}
}
