package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcache/internal/faults"
)

// TestMapOrdering checks Each maps every index to its own result slot
// regardless of completion order.
func TestMapOrdering(t *testing.T) {
	p := New[int](context.Background(), Options{Workers: 8})
	res := make([]int, 16)
	errs := make([]error, 16)
	Each(len(res), 8, func(i int) {
		res[i], errs[i] = p.Work(context.Background(), func(context.Context) (int, error) {
			if i%3 == 0 {
				time.Sleep(time.Millisecond) // scramble completion order
			}
			return i * i, nil
		})
	})
	for i := range res {
		if errs[i] != nil || res[i] != i*i {
			t.Fatalf("result %d = (%d, %v), want (%d, nil)", i, res[i], errs[i], i*i)
		}
	}
}

// TestMapDedup checks concurrent Do calls sharing a key run the job once and
// all receive its result, while empty keys are never shared.
func TestMapDedup(t *testing.T) {
	p := New[int64](context.Background(), Options{Workers: 1})
	var runs atomic.Int64
	release := make(chan struct{})
	keys := []string{"a", "a", "b", "a", "", ""}
	res := make([]int64, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], _ = p.Do(context.Background(), key, func(context.Context) (int64, error) {
				n := runs.Add(1)
				<-release // hold the job until every caller has arrived
				return n, nil
			})
		}()
	}
	// a and b each run once and the two keyless calls run alone: 4 jobs,
	// with the other two "a" callers joined.
	waitUntil(t, func() bool { return runs.Load() == 4 && p.Coalesced.Load() == 2 })
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 4 {
		t.Fatalf("%d executions, want 4 (a, b, and two keyless)", got)
	}
	if res[0] != res[1] || res[1] != res[3] {
		t.Fatalf("calls keyed 'a' got different results: %v", res)
	}
	if res[4] == res[5] {
		t.Fatalf("keyless calls were wrongly shared: %v", res)
	}
}

// TestMapPanicRecovery checks a panicking job becomes an error without
// taking down the pool or its neighbours.
func TestMapPanicRecovery(t *testing.T) {
	p := New[int](context.Background(), Options{Workers: 2})
	jobs := []func(context.Context) (int, error){
		func(context.Context) (int, error) { return 1, nil },
		func(context.Context) (int, error) { panic("boom") },
		func(context.Context) (int, error) { return 3, nil },
	}
	res := make([]int, len(jobs))
	errs := make([]error, len(jobs))
	Each(len(jobs), 2, func(i int) {
		res[i], errs[i] = p.Do(context.Background(), string(rune('a'+i)), func(ctx context.Context) (int, error) {
			return p.Work(ctx, jobs[i])
		})
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy jobs failed: %v", errs)
	}
	if errs[1] == nil || res[1] != 0 {
		t.Fatalf("panicking job did not become an error: (%d, %v)", res[1], errs[1])
	}
	if p.Running.Load() != 0 || p.Waiting.Load() != 0 {
		t.Fatalf("panic leaked a worker: running %d, waiting %d", p.Running.Load(), p.Waiting.Load())
	}
}

// TestMapTimeout checks the per-run timeout cancels a run's context.
func TestMapTimeout(t *testing.T) {
	p := New[int](context.Background(), Options{Workers: 1, Timeout: 20 * time.Millisecond})
	start := time.Now()
	_, err := p.Work(context.Background(), func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(10 * time.Second):
			return 1, nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout was not prompt")
	}
}

// TestMapCancellation checks runs not yet started when ctx ends are skipped
// with ctx.Err().
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := New[int](ctx, Options{Workers: 1})
	var started atomic.Int64
	errs := make([]error, 8)
	Each(len(errs), 1, func(i int) {
		_, errs[i] = p.Work(ctx, func(context.Context) (int, error) {
			started.Add(1)
			cancel() // first run cancels the rest
			return i, nil
		})
	})
	if n := started.Load(); n != 1 {
		t.Fatalf("%d runs started after cancellation, want 1", n)
	}
	var skipped int
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			skipped++
		}
	}
	if skipped != len(errs)-1 {
		t.Fatalf("%d runs skipped, want %d", skipped, len(errs)-1)
	}
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the pool")
		}
		time.Sleep(time.Millisecond)
	}
}

// holdWorker occupies p's only worker until the returned release is called.
func holdWorker(t *testing.T, p *Pool[int]) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Work(context.Background(), func(context.Context) (int, error) {
			<-ch
			return 0, nil
		})
	}()
	waitUntil(t, func() bool { return p.Running.Load() == 1 })
	return func() { close(ch); <-done }
}

// TestQueuedRunDroppedWhenWaiterLeaves checks that a queued run whose only
// waiter gives up never runs and frees its admission slot.
func TestQueuedRunDroppedWhenWaiterLeaves(t *testing.T) {
	p := New[int](context.Background(), Options{Workers: 1, QueueDepth: 1})
	release := holdWorker(t, p)

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	errc := make(chan error, 1)
	go func() {
		_, err := p.Do(ctx, "y", func(ctx context.Context) (int, error) {
			return p.Work(ctx, func(context.Context) (int, error) {
				ran.Store(true)
				return 1, nil
			})
		})
		errc <- err
	}()
	waitUntil(t, func() bool { return p.Waiting.Load() == 1 })
	if _, err := p.Work(context.Background(), func(context.Context) (int, error) { return 0, nil }); !errors.Is(err, ErrBusy) {
		t.Fatalf("third run with a full queue = %v, want ErrBusy", err)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned run = %v, want context.Canceled", err)
	}
	if p.Waiting.Load() != 0 {
		t.Fatalf("abandoned run still waiting: %d", p.Waiting.Load())
	}
	// The freed slot admits a new run behind the held worker.
	queued := make(chan error, 1)
	go func() {
		_, err := p.Work(context.Background(), func(context.Context) (int, error) { return 0, nil })
		queued <- err
	}()
	waitUntil(t, func() bool { return p.Waiting.Load() == 1 })
	release()
	if err := <-queued; err != nil {
		t.Fatalf("run admitted into the freed slot: %v", err)
	}
	if ran.Load() {
		t.Fatal("abandoned run executed")
	}
}

// TestWaiterTakesOverCancelledLeader checks that when a leader's ctx ends
// while its run is queued, a waiter whose ctx is live runs the job itself
// instead of inheriting the leader's cancellation.
func TestWaiterTakesOverCancelledLeader(t *testing.T) {
	p := New[int](context.Background(), Options{Workers: 1, QueueDepth: 4})
	release := holdWorker(t, p)

	var runs atomic.Int32
	job := func(ctx context.Context) (int, error) {
		return p.Work(ctx, func(context.Context) (int, error) { return int(runs.Add(1)) * 10, nil })
	}
	leaderCtx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := p.Do(leaderCtx, "y", job)
		leader <- err
	}()
	waitUntil(t, func() bool { return p.Waiting.Load() == 1 })
	type outcome struct {
		v   int
		err error
	}
	follower := make(chan outcome, 1)
	go func() {
		v, err := p.Do(context.Background(), "y", job)
		follower <- outcome{v, err}
	}()
	waitUntil(t, func() bool { return p.Coalesced.Load() == 1 })
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader = %v, want context.Canceled", err)
	}
	release()
	got := <-follower
	if got.err != nil || got.v != 10 {
		t.Fatalf("follower = (%d, %v), want (10, nil)", got.v, got.err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d runs, want 1", n)
	}
}

// TestCloseDrainsThenAborts checks Close lets a running run finish inside
// the deadline, refuses runs after it begins, and past the deadline cancels
// the runs' context.
func TestCloseDrainsThenAborts(t *testing.T) {
	p := New[int](context.Background(), Options{Workers: 2})
	release := holdWorker(t, p)
	closed := make(chan struct{})
	go func() {
		p.Close(context.Background())
		close(closed)
	}()
	waitUntil(t, func() bool { return p.Closed() })
	if _, err := p.Work(context.Background(), func(context.Context) (int, error) { return 0, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("run after Close = %v, want ErrClosed", err)
	}
	release()
	<-closed

	p = New[int](context.Background(), Options{Workers: 1})
	aborted := make(chan error, 1)
	go func() {
		_, err := p.Work(context.Background(), func(ctx context.Context) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		})
		aborted <- err
	}()
	waitUntil(t, func() bool { return p.Running.Load() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	p.Close(ctx)
	if err := <-aborted; !errors.Is(err, context.Canceled) {
		t.Fatalf("run past the drain deadline = %v, want context.Canceled", err)
	}
}

// TestInjectedPanicRecovered: faults.RunnerPanic fires inside Do's job and
// must come back as an error on exactly the jobs the injector chose, while
// untouched jobs succeed.
func TestInjectedPanicRecovered(t *testing.T) {
	inj := faults.New(5)
	inj.Set(faults.RunnerPanic, 0.5)
	p := New[int](context.Background(), Options{Workers: 4, Inject: inj})
	res := make([]int, 40)
	errs := make([]error, 40)
	Each(len(res), 4, func(i int) {
		res[i], errs[i] = p.Do(context.Background(), string(rune('A'+i)), func(ctx context.Context) (int, error) {
			return p.Work(ctx, func(context.Context) (int, error) { return i, nil })
		})
	})
	var failed, ok int
	for i, err := range errs {
		if err != nil {
			if !strings.Contains(err.Error(), "injected panic") {
				t.Fatalf("job %d failed with a non-injected error: %v", i, err)
			}
			failed++
		} else {
			if res[i] != i {
				t.Fatalf("job %d returned %d", i, res[i])
			}
			ok++
		}
	}
	if failed == 0 || ok == 0 {
		t.Fatalf("want a mix of injected failures and successes, got %d/%d", failed, ok)
	}
	st := inj.Stats()[faults.RunnerPanic]
	if int(st.Fired) != failed {
		t.Fatalf("injector fired %d, %d jobs failed", st.Fired, failed)
	}
}

// TestInjectedStallTripsTimeout: a stall drawn longer than the per-run
// timeout surfaces as DeadlineExceeded on a context-observing run.
func TestInjectedStallTripsTimeout(t *testing.T) {
	inj := faults.New(5)
	inj.Set(faults.RunnerStall, 1.0)
	// Stalls are uniform in [0, 100ms); a 1ms timeout expires under almost
	// all of them.
	p := New[int](context.Background(), Options{Workers: 4, Timeout: time.Millisecond, Inject: inj})
	var timedOut atomic.Int32
	Each(16, 4, func(int) {
		_, err := p.Work(context.Background(), func(ctx context.Context) (int, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return 1, nil
		})
		if errors.Is(err, context.DeadlineExceeded) {
			timedOut.Add(1)
		}
	})
	if timedOut.Load() == 0 {
		t.Fatal("no run observed an injected-stall timeout")
	}
}

// TestNoInjectorNoChaos: the nil default changes nothing.
func TestNoInjectorNoChaos(t *testing.T) {
	p := New[string](context.Background(), Options{})
	v, err := p.Do(context.Background(), "k", func(ctx context.Context) (string, error) {
		return p.Work(ctx, func(context.Context) (string, error) { return "fine", nil })
	})
	if err != nil || v != "fine" {
		t.Fatalf("result = (%q, %v)", v, err)
	}
}
