// Package exp drives the paper's evaluation (Section 5): it contains one
// function per table and figure, each returning structured rows that the
// netbench command renders. Runs are memoized within a Runner so figures
// sharing a configuration (e.g. the base NetCache run) simulate it once,
// and each figure pre-submits its whole spec list to a worker pool so
// independent simulations execute in parallel (parallelism between runs
// only — every simulation stays bit-deterministic, so results are identical
// at any worker count).
package exp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"netcache"
)

// AllApps is the Table 4 application list.
func AllApps() []string { return netcache.Apps() }

// Options configure a harness run.
type Options struct {
	Scale    float64       // input scale, 1.0 = paper inputs
	Apps     []string      // subset; nil = all twelve
	Workers  int           // concurrent simulations; <=0 = GOMAXPROCS
	Timeout  time.Duration // per-simulation wall-clock limit; 0 = none
	Progress func(format string, args ...interface{})

	// Sampling, when enabled, runs every simulation in sampled mode: figures
	// are built from the extrapolated estimates (the Estimated* accessors)
	// instead of exact counts, trading a bounded error for a large speedup.
	Sampling *netcache.Sampling
}

func (o Options) apps() []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return AllApps()
}

func (o Options) log(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// Spec names one simulation of the evaluation matrix.
type Spec struct {
	App string
	Sys netcache.System
	Cfg netcache.Config
}

// Runner memoizes simulation results across experiments and schedules
// uncached specs on a worker pool.
type Runner struct {
	opt Options

	mu    sync.Mutex
	cache map[string]netcache.Result
}

// NewRunner builds a Runner.
func NewRunner(opt Options) *Runner {
	if opt.Scale == 0 {
		opt.Scale = 0.25
	}
	return &Runner{opt: opt, cache: make(map[string]netcache.Result)}
}

// Opt returns the runner options.
func (r *Runner) Opt() Options { return r.opt }

// spec is the RunSpec the runner executes for s. Every spec shares the
// options' Sampling, which nothing writes; a disabled one canonicalizes away.
func (r *Runner) spec(s Spec) netcache.RunSpec {
	return netcache.RunSpec{App: s.App, System: s.Sys, Config: s.Cfg, Scale: r.opt.Scale, Sampling: r.opt.Sampling}
}

// key is the memoization key: the RunSpec.Key content address that RunBatch,
// netcached and the result store also use. It covers every Config field, the
// scale and the sampling plan (minus Workers, which parameterizes the
// execution strategy, not the experiment), so configs differing in any knob
// never alias, and equivalent spellings share one run. Prime rejects the
// specs it cannot key, so later lookups ignore the error.
func (r *Runner) key(s Spec) string {
	k, _ := r.spec(s).Key()
	return k
}

func (r *Runner) cached(key string) (netcache.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.cache[key]
	return res, ok
}

// Prime simulates every not-yet-cached spec through netcache.RunBatch and
// memoizes the results. Identical specs are deduplicated (singleflight),
// results are cached in deterministic spec order, and all failures are
// returned joined, also in spec order. Successful runs stay cached even when
// Prime returns an error, so callers keep partial results.
func (r *Runner) Prime(ctx context.Context, specs []Spec) error {
	var todo []netcache.RunSpec
	var keys []string
	for _, s := range specs {
		rs := r.spec(s)
		k, err := rs.Key()
		if err != nil {
			return fmt.Errorf("exp: %s on %s: %w", s.App, s.Sys, err)
		}
		if _, ok := r.cached(k); !ok {
			todo = append(todo, rs)
			keys = append(keys, k)
		}
	}
	if len(todo) == 0 {
		return nil
	}

	results := netcache.RunBatch(ctx, netcache.BatchOptions{
		Workers: r.opt.Workers,
		Timeout: r.opt.Timeout,
		OnDone: func(_ int, spec netcache.RunSpec, res netcache.Result, err error, wall time.Duration) {
			if err != nil {
				r.opt.log("  %-9s %-10s FAILED: %v", spec.App, spec.System, err)
				return
			}
			r.opt.log("  %-9s %-10s %12d cycles  (%.1fs wall)", spec.App, spec.System, res.Cycles, wall.Seconds())
		},
	}, todo)

	var errs []error
	r.mu.Lock()
	for i, br := range results {
		if br.Err != nil {
			errs = append(errs, br.Err)
			continue
		}
		r.cache[keys[i]] = br.Result
	}
	r.mu.Unlock()
	return errors.Join(errs...)
}

// Run simulates (or returns the memoized result of) one spec.
func (r *Runner) Run(ctx context.Context, app string, sys netcache.System, cfg netcache.Config) (netcache.Result, error) {
	s := Spec{App: app, Sys: sys, Cfg: cfg}
	if res, ok := r.cached(r.key(s)); ok {
		return res, nil
	}
	if err := r.Prime(ctx, []Spec{s}); err != nil {
		return netcache.Result{}, err
	}
	res, _ := r.cached(r.key(s))
	return res, nil
}

// runAll primes specs in parallel and returns their results in spec order.
func (r *Runner) runAll(ctx context.Context, specs []Spec) ([]netcache.Result, error) {
	if err := r.Prime(ctx, specs); err != nil {
		return nil, err
	}
	out := make([]netcache.Result, len(specs))
	for i, s := range specs {
		res, ok := r.cached(r.key(s))
		if !ok {
			return nil, fmt.Errorf("exp: %s on %s missing after prime", s.App, s.Sys)
		}
		out[i] = res
	}
	return out, nil
}

// Base returns the Section 4.1 configuration.
func Base() netcache.Config { return netcache.DefaultConfig() }
