package netcache

import (
	"context"
	"fmt"
	"time"

	"netcache/internal/apps"
	"netcache/internal/machine"
	"netcache/internal/runner"
	"netcache/internal/trace"
)

// RunSpec describes one simulation run.
type RunSpec struct {
	App    string // Table 4 name: "cg", "em3d", ..., "wf"
	System System
	Config Config  // zero value = Section 4.1 base machine
	Scale  float64 // input scale; 1.0 = paper inputs, 0 defaults to 0.25
	Verify bool    // check application results after the run

	// TraceCap, when positive, records the last TraceCap transactions
	// (Result.Trace) for debugging.
	TraceCap int

	// Sampling, when non-nil with a Mode set, switches the run to
	// representative-interval sampled execution (Result.Sampled carries the
	// extrapolated estimates). The pointer is omitted from the canonical
	// encoding when nil or zero-valued, so full-run store keys are
	// unchanged; enabled sampling hashes to a distinct key.
	Sampling *Sampling `json:",omitempty"`
}

// Result summarizes a run.
type Result struct {
	App    string
	System string
	Procs  int
	Cycles int64

	// Read behaviour.
	Reads              uint64
	L1Hits             uint64
	WBHits             uint64
	L2Hits             uint64
	L2Misses           uint64
	LocalMisses        uint64
	RemoteMisses       uint64
	SharedCacheHits    uint64
	SharedCacheHitRate float64
	AvgL2MissLatency   float64

	// Time decomposition (sums over processors, in pcycles).
	Busy       int64
	ReadStall  int64
	WriteStall int64
	SyncStall  int64

	ReadLatencyFraction float64
	SyncFraction        float64

	Writes  uint64
	Updates uint64

	Proto map[string]uint64

	// Trace holds the recorded transaction tail when RunSpec.TraceCap > 0.
	Trace []trace.Event

	// Sampled carries the extrapolated full-run estimates (with error bars)
	// of a sampled run; nil — and omitted from the JSON encoding — for full
	// runs, whose result bytes are therefore unchanged. The exact fields
	// above always hold the raw measured values, never estimates.
	Sampled *SampledEstimates `json:",omitempty"`

	Raw machine.RunStats
}

// Run builds the machine, sets up and executes the application, and returns
// the result. It is RunContext with a background context.
func Run(spec RunSpec) (Result, error) {
	return RunContext(context.Background(), spec)
}

// Validate reports whether the spec names a run the simulator can execute:
// a registered application, a valid Config and, when sampling is enabled, a
// known mode with a non-negative Period. It simulates nothing, so a service
// can reject a bad spec before keying, caching or forwarding it.
func (s RunSpec) Validate() error {
	if _, err := apps.New(s.App); err != nil {
		return err
	}
	if err := s.Config.Validate(); err != nil {
		return fmt.Errorf("netcache: %s on %s: %w", s.App, s.System, err)
	}
	return s.Sampling.validate()
}

// RunContext is Run with cancellation: when ctx is cancelled or times out,
// the simulation engine aborts promptly (joining all processor goroutines)
// and the error wraps ctx.Err(). Cancellation is polled between engine
// steps only, so a context that never fires cannot perturb the run —
// results stay bit-identical to Run.
func RunContext(ctx context.Context, spec RunSpec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	app, err := apps.New(spec.App)
	if err != nil {
		return Result{}, err
	}
	return runApp(ctx, spec, app)
}

// runApp executes one prepared app instance of a validated spec; split from
// RunContext so tests can drive the pipeline with synthetic apps (e.g. a
// failing Verify), whose names Validate would reject.
func runApp(ctx context.Context, spec RunSpec, app apps.App) (Result, error) {
	if spec.Scale == 0 {
		spec.Scale = 0.25
	}
	m := NewMachine(spec.System, spec.Config)
	if spec.Sampling.Enabled() {
		if err := m.AttachSampler(spec.Sampling.plan()); err != nil {
			return Result{}, fmt.Errorf("netcache: %s on %s: %w", spec.App, spec.System, err)
		}
	}
	var tb *trace.Buffer
	if spec.TraceCap > 0 {
		tb = m.AttachTrace(spec.TraceCap)
	}
	app.Setup(m, spec.Scale)
	rs, err := apps.RunContext(ctx, m, app)
	if err != nil {
		return Result{}, fmt.Errorf("netcache: %s on %s: %w", spec.App, spec.System, err)
	}
	res := summarize(spec.App, rs)
	if tb != nil {
		// The buffer retains at most TraceCap events, so one exact-size
		// allocation covers the snapshot.
		res.Trace = tb.SnapshotInto(make([]trace.Event, 0, spec.TraceCap))
	}
	if spec.Verify {
		if err := app.Verify(); err != nil {
			// Return the partial Result alongside the error: the recorded
			// transaction tail (res.Trace) is most useful exactly when
			// verification fails.
			return res, fmt.Errorf("netcache: %s on %s: verification: %w", spec.App, spec.System, err)
		}
	}
	return res, nil
}

func summarize(app string, rs machine.RunStats) Result {
	t := rs.Totals()
	var sampled *SampledEstimates
	if rs.Sampling != nil {
		sampled = buildEstimates(rs.Sampling, rs)
	}
	return Result{
		Sampled:             sampled,
		App:                 app,
		System:              rs.System,
		Procs:               rs.Procs,
		Cycles:              int64(rs.Cycles),
		Reads:               t.Reads,
		L1Hits:              t.L1Hits,
		WBHits:              t.WBHits,
		L2Hits:              t.L2Hits,
		L2Misses:            t.L2Misses(),
		LocalMisses:         t.LocalMiss,
		RemoteMisses:        t.RemoteMiss,
		SharedCacheHits:     t.SharedHits,
		SharedCacheHitRate:  rs.SharedHitRate(),
		AvgL2MissLatency:    rs.AvgL2MissLatency(),
		Busy:                int64(t.Busy),
		ReadStall:           int64(t.ReadStall),
		WriteStall:          int64(t.WriteStall),
		SyncStall:           int64(t.SyncStall),
		ReadLatencyFraction: rs.ReadLatencyFraction(),
		SyncFraction:        rs.SyncFraction(),
		Writes:              t.Writes,
		Updates:             t.UpdatesIssued,
		Proto:               rs.Proto,
		Raw:                 rs,
	}
}

// Machine re-exports the simulated multiprocessor for custom kernels.
type Machine = machine.Machine

// Ctx re-exports the per-processor execution-driven API.
type Ctx = machine.Ctx

// F64 and I64 re-export the typed simulated arrays.
type (
	F64 = machine.F64
	I64 = machine.I64
)

// RunCustom builds a machine of the given system, calls setup to allocate
// and initialize application data, and runs the returned body on every
// simulated processor. Use it to program your own kernels against the
// execution-driven API:
//
//	res, _ := netcache.RunCustom("mykernel", netcache.SystemNetCache, netcache.Config{},
//	    func(m *netcache.Machine) func(*netcache.Ctx) {
//	        data := m.NewSharedF64(1 << 16)
//	        return func(c *netcache.Ctx) {
//	            for i := c.ID(); i < data.Len(); i += c.NP() {
//	                data.Store(c, i, float64(i))
//	            }
//	            c.Barrier(0)
//	        }
//	    })
func RunCustom(name string, sys System, cfg Config, setup func(*Machine) func(*Ctx)) (Result, error) {
	return RunCustomContext(context.Background(), name, sys, cfg, setup)
}

// RunCustomContext is RunCustom with cancellation, mirroring RunContext.
func RunCustomContext(ctx context.Context, name string, sys System, cfg Config, setup func(*Machine) func(*Ctx)) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("netcache: custom %s on %s: %w", name, sys, err)
	}
	m := NewMachine(sys, cfg)
	body := setup(m)
	rs, err := m.RunContext(ctx, body)
	if err != nil {
		return Result{}, fmt.Errorf("netcache: custom %s on %s: %w", name, sys, err)
	}
	return summarize(name, rs), nil
}

// BatchOptions configure a RunBatch call.
type BatchOptions struct {
	// Workers bounds the number of concurrently executing simulations.
	// Non-positive means GOMAXPROCS.
	Workers int

	// Timeout, when positive, bounds each simulation's wall-clock time.
	Timeout time.Duration

	// OnDone, when non-nil, is called after each simulation finishes. It
	// runs on worker goroutines and must be safe for concurrent use.
	OnDone func(index int, spec RunSpec, res Result, err error, wall time.Duration)
}

// BatchResult pairs one RunBatch spec with its outcome.
type BatchResult struct {
	Spec   RunSpec
	Result Result
	Err    error
}

// RunBatch simulates every spec concurrently on a worker pool and returns
// one BatchResult per spec, in spec order regardless of completion order.
// Each simulation is bit-deterministic and independent, so the results are
// identical to running the specs sequentially. Specs with equal canonical
// keys (see RunSpec.Key) are simulated once and share the result. When ctx
// is cancelled, not-yet-started specs fail with ctx.Err() and running ones
// abort promptly; completed entries keep their results (partial results,
// not a panic).
func RunBatch(ctx context.Context, opt BatchOptions, specs []RunSpec) []BatchResult {
	jobs := make([]runner.Job[Result], len(specs))
	for i, spec := range specs {
		key, _ := spec.Key() // "" on error: run without dedup
		jobs[i] = runner.Job[Result]{
			Key: key,
			Run: func(ctx context.Context) (Result, error) { return RunContext(ctx, spec) },
		}
	}
	ropt := runner.Options[Result]{Workers: opt.Workers, Timeout: opt.Timeout}
	if opt.OnDone != nil {
		ropt.OnDone = func(d runner.Done[Result]) {
			opt.OnDone(d.Index, specs[d.Index], d.Value, d.Err, d.Wall)
		}
	}
	rs := runner.Map(ctx, ropt, jobs)
	out := make([]BatchResult, len(specs))
	for i, r := range rs {
		out[i] = BatchResult{Spec: specs[i], Result: r.Value, Err: r.Err}
	}
	return out
}

// Apps lists the Table 4 application names.
func Apps() []string { return apps.Names() }

// DescribeApp returns the Table 4 description and paper input for name.
func DescribeApp(name string) (desc, input string) { return apps.Describe(name) }
