// Package runner executes the simulations of RunBatch and netcached: a
// long-lived pool that runs each keyed job once among its concurrent
// callers, admits at most Workers+QueueDepth runs, executes Workers at a
// time under its own context and per-run timeout, recovers panics into
// errors, and drains on Close.
//
// Each simulation is internally bit-deterministic (the one-runnable-goroutine
// discipline of internal/sim), so whole runs can execute concurrently with
// zero result drift: parallelism lives strictly *between* simulations, never
// within one. For the same reason a result is a pure function of its key, so
// a caller waiting on a key may run it in place of a caller that left.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netcache/internal/faults"
)

var (
	// ErrBusy refuses a run past Workers+QueueDepth admitted ones.
	ErrBusy = errors.New("runner: admission queue full")
	// ErrClosed refuses a run once Close has begun.
	ErrClosed = errors.New("runner: pool closed")
)

// Options configure a Pool.
type Options struct {
	// Workers bounds the number of concurrently executing runs.
	// Non-positive means runtime.GOMAXPROCS(0).
	Workers int

	// QueueDepth bounds the admitted runs waiting for a worker.
	QueueDepth int

	// Timeout, when positive, bounds each run's wall-clock time. A run
	// that observes its context returns promptly with an error wrapping
	// context.DeadlineExceeded.
	Timeout time.Duration

	// Inject, when non-nil, enables deterministic chaos inside the pool:
	// the faults.RunnerStall site delays a run once it holds a worker
	// (stalls past Timeout surface as DeadlineExceeded) and
	// faults.RunnerPanic panics inside Do's job, exercising the
	// recover-into-error path. Nil disables injection.
	Inject *faults.Injector
}

// Pool executes keyed jobs. Build one with New.
type Pool[T any] struct {
	opt    Options
	ctx    context.Context // every run's context; cancelled by Close
	cancel context.CancelFunc
	slots  chan struct{} // admitted runs, running or waiting
	sem    chan struct{} // worker tokens

	mu      sync.Mutex
	calls   map[string]*call[T]
	closing bool
	runs    sync.WaitGroup // runs holding a worker

	// Running counts runs holding a worker, Waiting admitted runs waiting
	// for one, and Coalesced the times a Do call waited on another's job.
	Running, Waiting, Coalesced atomic.Int64
}

// call is one in-flight keyed job; waiters block on done. orphaned marks a
// job that failed because its caller's own context ended.
type call[T any] struct {
	done     chan struct{}
	val      T
	err      error
	orphaned bool
}

// New builds a pool whose runs execute under a child of ctx.
func New[T any](ctx context.Context, opt Options) *Pool[T] {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool[T]{
		opt:   opt,
		slots: make(chan struct{}, opt.Workers+max(opt.QueueDepth, 0)),
		sem:   make(chan struct{}, opt.Workers),
		calls: make(map[string]*call[T]),
	}
	p.ctx, p.cancel = context.WithCancel(ctx)
	return p
}

// Closed reports whether Close has begun.
func (p *Pool[T]) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closing
}

// Do runs job once among the concurrent callers with key, and each receives
// its outcome; a panic in job becomes its error. The first caller runs job
// under its own ctx, and the others wait until job returns or their ctx
// ends. If job failed because the first caller's ctx ended, a waiter whose
// ctx is still live runs job in its place. An empty key is never shared.
func (p *Pool[T]) Do(ctx context.Context, key string, job func(context.Context) (T, error)) (T, error) {
	if key == "" {
		return p.run(ctx, job)
	}
	for {
		p.mu.Lock()
		c, ok := p.calls[key]
		if !ok {
			c = &call[T]{done: make(chan struct{})}
			p.calls[key] = c
			p.mu.Unlock()
			c.val, c.err = p.run(ctx, job)
			c.orphaned = ctx.Err() != nil && errors.Is(c.err, ctx.Err())
			p.mu.Lock()
			delete(p.calls, key)
			p.mu.Unlock()
			close(c.done)
			return c.val, c.err
		}
		p.mu.Unlock()
		p.Coalesced.Add(1)
		select {
		case <-c.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
		if !c.orphaned {
			return c.val, c.err
		}
	}
}

// run calls job with panics, real or injected, recovered into errors.
func (p *Pool[T]) run(ctx context.Context, job func(context.Context) (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: job panicked: %v", r)
		}
	}()
	if p.opt.Inject.Fire(faults.RunnerPanic) {
		panic("faults: injected panic at site " + faults.RunnerPanic)
	}
	return job(ctx)
}

// maxInjectedStall bounds the chaos delay drawn at the faults.RunnerStall
// site; the actual stall is the draw's aux value modulo this.
const maxInjectedStall = 100 * time.Millisecond

// Work admits fn, waits for a worker, and runs fn on the caller's goroutine
// under the pool's context and per-run timeout, not under ctx: a run that
// holds a worker finishes even if its caller leaves. It returns ErrBusy past
// Workers+QueueDepth admitted runs, ctx.Err() if ctx ends before fn gets a
// worker, and ErrClosed if Close began before then.
func (p *Pool[T]) Work(ctx context.Context, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	select {
	case p.slots <- struct{}{}:
	default:
		return zero, ErrBusy
	}
	defer func() { <-p.slots }()
	p.Waiting.Add(1)
	select {
	case p.sem <- struct{}{}:
		p.Waiting.Add(-1)
	case <-ctx.Done():
		p.Waiting.Add(-1)
		return zero, ctx.Err()
	}
	defer func() { <-p.sem }()
	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		return zero, ErrClosed
	}
	p.runs.Add(1)
	p.mu.Unlock()
	defer p.runs.Done()
	p.Running.Add(1)
	defer p.Running.Add(-1)

	runCtx := p.ctx
	if p.opt.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, p.opt.Timeout)
		defer cancel()
	}
	if fired, aux := p.opt.Inject.Draw(faults.RunnerStall); fired {
		t := time.NewTimer(time.Duration(aux % uint64(maxInjectedStall)))
		select {
		case <-t.C:
		case <-runCtx.Done():
			t.Stop() // fn observes the expired context and returns promptly
		}
	}
	return fn(runCtx)
}

// Close drains the pool: no run starts after it begins, runs holding a
// worker finish until ctx ends, and then the pool's context is cancelled,
// aborting whatever still runs. It returns once every run has returned.
func (p *Pool[T]) Close(ctx context.Context) {
	p.mu.Lock()
	p.closing = true
	p.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		p.runs.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		p.cancel()
		<-drained // engines abort in bounded time; join them
	}
	p.cancel()
}

// Each calls fn(i) for every i in [0, n) on at most workers goroutines
// (non-positive: GOMAXPROCS), dispatching in index order, and returns once
// every call has. Each call stores its outcome at index i, so results are
// in index order regardless of completion order.
func Each(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
