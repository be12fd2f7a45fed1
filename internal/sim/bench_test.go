package sim

// Micro-benchmarks for the scheduler hot path. Every simulated memory
// reference pays for one Schedule/fire cycle (protocol events) and/or one
// Invoke round trip (processor services), so these two paths bound
// end-to-end simulation throughput. The committed baseline lives in
// BENCH_engine.json at the repository root; CI compares fresh runs against
// it with benchstat and warns on >10% regressions.

import "testing"

// BenchmarkScheduleFire measures one event through the scheduler: arena
// slot allocation, heap push, pop, and dispatch. The closure is hoisted so
// the benchmark isolates the engine's own event path; it must run at
// 0 allocs/op.
func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine(0)
	fn := func() {}
	// Warm the event storage so steady-state cost is measured.
	for i := 0; i < 64; i++ {
		e.Schedule(e.now, fn)
	}
	for i := 0; i < 64; i++ {
		e.fireNext()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.now, fn)
		e.fireNext()
	}
}

// BenchmarkScheduleFireDepth64 is BenchmarkScheduleFire with 64 events
// resident, exercising the heap's sift cost at a realistic queue depth
// (one drain pipeline step plus deliveries per node on a 16..64-node run).
func BenchmarkScheduleFireDepth64(b *testing.B) {
	e := NewEngine(0)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(e.now+Time(i%7), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.now+Time(i%7), fn)
		e.fireNext()
	}
}

// BenchmarkInvokeRoundTrip measures one processor service round trip: the
// app yields, the service runs in engine context and resumes the processor,
// and app code continues. On a single-processor engine with no pending
// events the scheduler always selects the invoking processor again, so no
// goroutine switch happens; it must run at 0 allocs/op.
func BenchmarkInvokeRoundTrip(b *testing.B) {
	e := NewEngine(1)
	if _, err := e.Run(func(p *Proc) {
		svc := func() { p.ResumeAt(p.Clock()) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Invoke(svc)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInvokeAfterEvent is BenchmarkInvokeRoundTrip with an event in
// between: the service schedules an event at the processor's resume time, so
// each op fires that event (events first on ties) and then resumes the same
// processor, which keeps the baton throughout.
func BenchmarkInvokeAfterEvent(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	if _, err := e.Run(func(p *Proc) {
		svc := func() {
			e.Schedule(p.Clock()+1, fn)
			p.ResumeAt(p.Clock() + 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Invoke(svc)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInvokeContended is BenchmarkInvokeRoundTrip with four processors
// advancing in lockstep, so services from different processors interleave
// and nearly every Invoke passes the baton to another processor's goroutine
// (one goroutine switch).
func BenchmarkInvokeContended(b *testing.B) {
	e := NewEngine(4)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Run(func(p *Proc) {
		svc := func() { p.ResumeAt(p.Clock() + 1) }
		for i := 0; i < b.N; i++ {
			p.Advance(1)
			p.Invoke(svc)
		}
	}); err != nil {
		b.Fatal(err)
	}
}
