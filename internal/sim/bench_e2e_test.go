package sim_test

// End-to-end engine benchmark: the full Figure 5 speedup experiment (every
// Table 4 application at one and sixteen nodes) at bench scale, driven
// through the public experiment harness. This is the quantity the netcached
// service pays on every store miss, so it is the number the scheduler
// hot-path work is ultimately accountable to.

import (
	"context"
	"testing"

	"netcache/internal/exp"
)

// BenchmarkFigure5 regenerates Figure 5 serially (Workers: 1) so the
// per-iteration wall clock tracks single-run engine latency rather than
// host parallelism.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(exp.Options{Scale: 0.12, Workers: 1})
		if _, err := exp.Figure5(context.Background(), r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates the Figure 6 execution-time breakdown (every
// application on all four 16-node systems) serially. Relative to Figure 5 it
// weighs the coherence-heavy systems more (DMON-I directory traffic,
// LambdaNet update storms), so it tracks the memory-system layer rather than
// raw scheduling. CI runs it with the engine micro-benchmarks against
// BENCH_engine.json, so a handoff regression shows up end to end too.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(exp.Options{Scale: 0.12, Workers: 1})
		if _, err := exp.Figure6(context.Background(), r); err != nil {
			b.Fatal(err)
		}
	}
}
