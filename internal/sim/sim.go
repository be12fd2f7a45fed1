// Package sim implements a deterministic execution-driven simulation engine.
//
// The engine advances a single global clock over two kinds of actors:
//
//   - Events: closures scheduled at an absolute cycle. Protocol machinery
//     (update deliveries, acks, write-buffer drains) runs as events. Events
//     live in a pooled, free-listed arena indexed by a 4-ary min-heap, so
//     scheduling and firing are allocation-free in steady state.
//   - Processors: goroutines executing real application code. Each processor
//     has a local clock that advances as the application "computes"; whenever
//     the application touches the simulated memory system or synchronizes, it
//     calls Invoke and a service closure runs on its behalf in exclusive
//     engine context.
//
// There is no engine goroutine. Control is a baton that exactly one goroutine
// holds at any instant — Run's, or one processor's — and the holder runs the
// scheduler itself: it fires events and services in global order (smallest
// timestamp first, ties broken by events first, then lowest processor ID)
// until some processor must resume. If that is the holder, it simply carries
// on; otherwise it sends the baton on the selected processor's unbuffered
// resume channel and parks on its own. Each send is the happens-before edge
// that hands over all engine state, so runs are race-free and
// bit-deterministic, and a yield costs at most one goroutine switch.
//
// Two structures keep the pick cheap: the event heap exposes the earliest
// event in O(1), and runnable processors sit in an indexed min-heap keyed by
// (clock, ID), updated incrementally as they change state. See DESIGN.md,
// "Engine internals".
package sim

import "fmt"

// interruptEvery is how many scheduler actions pass between Interrupt polls.
// Actions are counted by the scheduler on whichever goroutine holds the
// baton, so polling is off the per-event hot path often enough to stay cheap
// while still bounding abort latency to a few thousand events.
const interruptEvery = 1024

// abortSignal is panicked through app code to unwind a processor goroutine
// during an abort: the holder that finds the run failed, or a processor Run
// poisons while draining. It never escapes the package.
type abortSignal struct{}

// Time is a simulation timestamp in processor cycles (pcycles).
type Time int64

// Forever is a timestamp larger than any reachable simulation time.
const Forever Time = 1<<62 - 1

// event is one arena slot: a scheduled closure, or a scheduled two-argument
// bound function (ScheduleArgs) that lets hot callers avoid allocating a
// fresh closure per event.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	afn    func(a0, a1 int64)
	a0, a1 int64
}

// procState tracks where a processor is in the baton handoff protocol.
type procState int

const (
	procIdle    procState = iota // not yet started
	procRunning                  // holds the baton, executing app code
	procService                  // queued with a pending service closure
	procResume                   // service finished; waiting to be resumed at clock
	procBlocked                  // waiting for an external WakeAt
	procDone                     // app function returned
)

// Proc is one simulated processor context.
type Proc struct {
	ID    int
	eng   *Engine
	clock Time
	state procState
	qi    int32 // index in the engine's runnable heap; -1 when absent

	svc      func()        // pending service, run in engine context at clock
	resume   chan struct{} // receives the baton
	poisoned bool          // set by Run before handing the baton to a proc it is aborting

	yieldFn func() // cached Yield service closure
}

// Engine drives the simulation.
type Engine struct {
	// Interrupt, when non-nil, is polled periodically from the scheduler
	// loop; returning a non-nil error aborts the run with that error. Wire
	// a context.Context's Err method here for cancellation and timeouts.
	// Polling never runs between a processor's service and its resume, so
	// an Interrupt that never fires cannot perturb the simulated timeline.
	Interrupt func() error

	now   Time
	seq   uint64
	iters uint64 // scheduled actions since Run, for Interrupt batching

	// Event storage: arena slots recycled through a free list, with a 4-ary
	// min-heap of arena indices ordered by (at, seq).
	arena []event
	free  []int32
	eheap []int32

	// runq is the indexed min-heap of runnable processors (state procService
	// or procResume), keyed by (clock, ID); Proc.qi tracks positions.
	runq []*Proc

	procs  []*Proc
	live   int
	finish Time // latest completion clock of a finished processor
	failed error

	// done returns the baton to Run once every processor has finished or
	// the run has failed. Its one-slot buffer lets Run pass the baton to
	// itself when the run is over before any processor starts.
	done chan struct{}
}

// NewEngine creates an engine with n processor contexts.
func NewEngine(n int) *Engine {
	e := &Engine{done: make(chan struct{}, 1)}
	e.procs = make([]*Proc, n)
	for i := range e.procs {
		e.procs[i] = &Proc{
			ID:     i,
			eng:    e,
			qi:     -1,
			resume: make(chan struct{}),
		}
	}
	return e
}

// Now returns the current global simulation time.
func (e *Engine) Now() Time { return e.now }

// SumClock returns the sum of every processor's local clock: P times the
// machine's average per-processor progress. Unlike the largest processor
// clock it is immune to the skew functional-warmup bursts create (one
// processor running far ahead while the rest are parked), so deltas of
// SumClock are the robust cycle measure for sampled-execution intervals.
func (e *Engine) SumClock() Time {
	var t Time
	for _, p := range e.procs {
		t += p.clock
	}
	return t
}

// CheckCancel polls the Interrupt hook immediately (no action batching) and
// reports whether the run has failed. Safe to call from app code that holds
// the baton; long functional-warmup stretches poll it so cancellation does
// not wait for the next scheduler pass.
func (e *Engine) CheckCancel() bool {
	if e.failed == nil && e.Interrupt != nil {
		if err := e.Interrupt(); err != nil {
			e.fail(fmt.Errorf("sim: interrupted at cycle %d: %w", e.now, err))
		}
	}
	return e.failed != nil
}

// Procs returns the engine's processor contexts.
func (e *Engine) Procs() []*Proc { return e.procs }

// ---- Event heap --------------------------------------------------------

// evLess orders arena slots by (at, seq): time order, scheduling order
// within a cycle.
func (e *Engine) evLess(i, j int32) bool {
	a, b := &e.arena[i], &e.arena[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (e *Engine) evPush(idx int32) {
	h := append(e.eheap, idx)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.evLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.eheap = h
}

func (e *Engine) evPopMin() int32 {
	h := e.eheap
	min := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	e.eheap = h
	n := len(h)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.evLess(h[c], h[best]) {
				best = c
			}
		}
		if !e.evLess(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return min
}

// Schedule registers fn to run in engine context at time at. Scheduling in
// the past is an error that aborts the run.
func (e *Engine) Schedule(at Time, fn func()) {
	e.schedule(at, fn, nil, 0, 0)
}

// ScheduleArgs registers fn(a0, a1) to run in engine context at time at.
// It is Schedule for hot paths: a caller that binds fn once (a stored method
// value) and passes its per-event data as arguments schedules events without
// allocating a closure per call.
func (e *Engine) ScheduleArgs(at Time, fn func(a0, a1 int64), a0, a1 int64) {
	e.schedule(at, nil, fn, a0, a1)
}

func (e *Engine) schedule(at Time, fn func(), afn func(a0, a1 int64), a0, a1 int64) {
	if at < e.now {
		e.fail(fmt.Errorf("sim: schedule at %d before now %d", at, e.now))
		at = e.now
	}
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	ev.at, ev.seq, ev.fn, ev.afn, ev.a0, ev.a1 = at, e.seq, fn, afn, a0, a1
	e.evPush(idx)
}

// fireNext pops the earliest pending event, advances the clock to it,
// recycles its arena slot, and runs it. The caller must have checked that an
// event is pending.
func (e *Engine) fireNext() {
	idx := e.evPopMin()
	ev := &e.arena[idx]
	at, fn, afn, a0, a1 := ev.at, ev.fn, ev.afn, ev.a0, ev.a1
	ev.fn, ev.afn = nil, nil
	e.free = append(e.free, idx)
	e.now = at
	if afn != nil {
		afn(a0, a1)
		return
	}
	fn()
}

// ---- Runnable-processor heap -------------------------------------------

// procLess is the scheduler tie-break for processors: earliest clock, then
// lowest ID.
func procLess(a, b *Proc) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.ID < b.ID)
}

func (e *Engine) runqUp(i int) {
	q := e.runq
	p := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !procLess(p, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].qi = int32(i)
		i = parent
	}
	q[i] = p
	p.qi = int32(i)
}

func (e *Engine) runqDown(i int) {
	q := e.runq
	n := len(q)
	p := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && procLess(q[c+1], q[c]) {
			c++
		}
		if !procLess(q[c], p) {
			break
		}
		q[i] = q[c]
		q[i].qi = int32(i)
		i = c
	}
	q[i] = p
	p.qi = int32(i)
}

func (e *Engine) runqPush(p *Proc) {
	e.runq = append(e.runq, p)
	p.qi = int32(len(e.runq) - 1)
	e.runqUp(int(p.qi))
}

// runqFix restores heap order after p's key changed, inserting p if absent.
func (e *Engine) runqFix(p *Proc) {
	if p.qi < 0 {
		e.runqPush(p)
		return
	}
	i := int(p.qi)
	e.runqUp(i)
	if int(p.qi) == i {
		e.runqDown(i)
	}
}

// runqRemove detaches p from the runnable heap (no-op when absent).
func (e *Engine) runqRemove(p *Proc) {
	i := int(p.qi)
	if i < 0 {
		return
	}
	last := len(e.runq) - 1
	moved := e.runq[last]
	e.runq[last] = nil
	e.runq = e.runq[:last]
	p.qi = -1
	if i < last {
		e.runq[i] = moved
		moved.qi = int32(i)
		e.runqUp(i)
		if int(moved.qi) == i {
			e.runqDown(i)
		}
	}
}

func (e *Engine) fail(err error) {
	if e.failed == nil {
		e.failed = err
	}
}

// pollInterrupt counts one scheduler action and polls the Interrupt hook on
// the batching interval, converting a firing hook into a run failure.
func (e *Engine) pollInterrupt() {
	e.iters++
	if e.Interrupt != nil && e.iters%interruptEvery == 0 {
		if err := e.Interrupt(); err != nil {
			e.fail(fmt.Errorf("sim: aborted at cycle %d: %w", e.now, err))
		}
	}
}

// Run starts all processors at cycle 0, each executing fn, and drives the
// simulation until every processor's app function has returned. It returns
// the final time (the maximum completion cycle over all processors).
//
// Run's goroutine holds the baton first: its scheduler pass hands it to the
// earliest processor, the processors then pass it among themselves, and it
// comes back once the last one finishes or the run fails. A panic in app code, and a
// non-nil Interrupt poll, both abort the run: Run unwinds and joins every
// processor goroutine (no leaks) and returns the failure as an error.
func (e *Engine) Run(fn func(*Proc)) (Time, error) {
	for _, p := range e.procs {
		p.state = procResume
		p.clock = 0
		go p.run(fn)
	}
	for _, p := range e.procs {
		e.runqPush(p)
	}
	e.live = len(e.procs)

	e.pass(e.dispatch())
	<-e.done
	e.drain()
	if e.failed != nil {
		return e.now, e.failed
	}
	if e.finish > e.now {
		e.now = e.finish
	}
	return e.now, nil
}

// dispatch is the scheduler, run by whichever goroutine holds the baton. It
// advances the clock, firing events and running services, until a processor
// must resume, and returns that processor marked running; nil means the
// baton goes back to Run because every processor is done or the run failed.
// A panic out of an event or service closure (protocol machinery) is
// converted into a run failure so Run can still join the processor
// goroutines.
func (e *Engine) dispatch() *Proc {
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("sim: engine panic at cycle %d: %v", e.now, r))
		}
	}()
	for e.live > 0 && e.failed == nil {
		e.pollInterrupt()
		if e.failed != nil {
			return nil
		}
		// The earliest pending action sits at the heap roots.
		evAt := Forever
		if len(e.eheap) > 0 {
			evAt = e.arena[e.eheap[0]].at
		}
		var p *Proc
		procAt := Forever
		if len(e.runq) > 0 {
			p = e.runq[0]
			procAt = p.clock
		}
		if evAt <= procAt {
			if evAt == Forever {
				e.fail(fmt.Errorf("sim: deadlock at cycle %d: %d processors blocked with no pending events", e.now, e.live))
				return nil
			}
			e.fireNext()
			continue
		}
		e.runqRemove(p)
		e.now = procAt
		if p.state == procResume {
			p.state = procRunning
			return p
		}
		p.state = procBlocked // service decides the next state
		p.runService()
	}
	return nil
}

// pass hands the baton to next, or back to Run when next is nil.
func (e *Engine) pass(next *Proc) {
	if next == nil {
		e.done <- struct{}{}
		return
	}
	next.resume <- struct{}{}
}

// drain poisons and joins every processor goroutine that has not finished,
// one at a time. Every live processor is parked at <-p.resume (in Invoke, in
// Park, or in run before its first resume), so handing it the baton unwinds
// it with abortSignal, and its exit passes the baton straight back to Run.
func (e *Engine) drain() {
	for _, p := range e.procs {
		if p.state == procDone || p.state == procIdle {
			continue
		}
		p.poisoned = true
		p.resume <- struct{}{}
		<-e.done
	}
}

func (p *Proc) runService() {
	svc := p.svc
	p.svc = nil
	svc()
}

// run is a processor goroutine. It waits for the baton, runs the app
// function, and on the way out — finished, panicked or aborted — marks the
// processor done and passes the baton on.
func (p *Proc) run(fn func(*Proc)) {
	e := p.eng
	<-p.resume
	defer func() {
		if r := recover(); r != nil {
			if _, aborting := r.(abortSignal); !aborting {
				e.fail(fmt.Errorf("sim: proc %d panicked: %v", p.ID, r))
			}
		}
		p.state = procDone
		e.live--
		if p.clock > e.finish {
			e.finish = p.clock
		}
		e.pass(e.dispatch())
	}()
	if p.poisoned {
		return
	}
	fn(p)
}

// Clock returns the processor's local clock. Valid from both app code and
// engine context.
func (p *Proc) Clock() Time { return p.clock }

// Advance adds n cycles of pure computation to the processor's local clock.
// It must only be called from the processor's own app code.
func (p *Proc) Advance(n Time) {
	if n < 0 {
		panic("sim: negative Advance")
	}
	p.clock += n
}

// Invoke queues svc to run in exclusive engine context once global time
// reaches the processor's clock (all earlier events fire first), then runs the
// scheduler on this goroutine. The service must finish the processor's
// transition by calling ResumeAt or Block; app code continues once the
// scheduler next selects this processor. If that happens within this call,
// Invoke returns without a goroutine switch; otherwise it passes the baton to
// the selected processor and parks until handed it back. A processor that
// finds the run failed unwinds with abortSignal. It must only be called from
// the processor's own app code.
func (p *Proc) Invoke(svc func()) {
	e := p.eng
	p.svc = svc
	p.state = procService
	e.runqPush(p)
	next := e.dispatch()
	if next == p {
		return
	}
	if next == nil {
		panic(abortSignal{})
	}
	next.resume <- struct{}{}
	<-p.resume
	if p.poisoned {
		panic(abortSignal{})
	}
}

// Park blocks the processor until it is released: by Release (a functional
// round leader dispatching it to a worker slot) or by the scheduler selecting
// it after Reattach. A parked processor is indistinguishable from one waiting
// at its Invoke resume point, so the baton handoff and the abort path
// (poison) both work on it unchanged. App-context only.
func (p *Proc) Park() {
	<-p.resume
	if p.poisoned {
		panic(abortSignal{})
	}
}

// Release wakes a processor parked at Park or at its Invoke resume point
// without handing it the baton. Called from app context by a functional round
// leader, which keeps the baton for the whole round, so no scheduler runs
// while the released processor touches what it is allowed to (its own node
// state only — see the sampler's round protocol).
func (p *Proc) Release() { p.resume <- struct{}{} }

// DetachRunnable removes every resumable (procResume) processor from the
// runnable heap and appends it to dst in ascending ID order. The caller takes
// responsibility for running the detached processors outside the scheduler and
// must Reattach them before it passes the baton on. Processors with a
// pending service stay queued; blocked and finished processors are untouched.
// Must be called from app context holding the baton.
func (e *Engine) DetachRunnable(dst []*Proc) []*Proc {
	start := len(dst)
	for _, p := range e.procs {
		if p.state == procResume && p.qi >= 0 {
			dst = append(dst, p)
		}
	}
	for _, p := range dst[start:] {
		e.runqRemove(p)
	}
	return dst
}

// Reattach returns processors taken by DetachRunnable to the runnable heap,
// keyed by their (possibly advanced) clocks. Must be called from app context
// holding the baton, before it is passed on.
func (e *Engine) Reattach(ps []*Proc) {
	for _, p := range ps {
		e.runqPush(p)
	}
}

// Yield runs the scheduler without advancing the clock: the processor
// re-enters the runnable queue at its current time and resumes once it is
// the earliest actor again. Functional-warmup stretches call it
// periodically so processors advance in near-lockstep — unbounded bursts
// would run one processor's clock far ahead of the parked rest, and the
// artificial skew would resolve as phantom sync stall at the next barrier.
func (p *Proc) Yield() {
	if p.yieldFn == nil {
		p.yieldFn = func() { p.ResumeAt(p.clock) }
	}
	p.Invoke(p.yieldFn)
}

// ResumeAt marks the processor runnable again at time t. Must be called from
// engine context (inside a service or event) for a processor that is in a
// service or blocked.
func (p *Proc) ResumeAt(t Time) {
	if t < p.clock {
		p.eng.fail(fmt.Errorf("sim: proc %d resume at %d before clock %d", p.ID, t, p.clock))
		t = p.clock
	}
	p.clock = t
	p.state = procResume
	p.eng.runqFix(p)
}

// Block leaves the processor waiting; some future event must call ResumeAt.
func (p *Proc) Block() {
	p.state = procBlocked
	p.eng.runqRemove(p)
}

// Blocked reports whether the processor is waiting on an external wakeup.
func (p *Proc) Blocked() bool { return p.state == procBlocked }
