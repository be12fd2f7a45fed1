package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkNoLeak fails t unless the goroutine count falls back to before: an
// aborted run must join every processor goroutine.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines leaked after abort", n-before)
	}
}

// TestSingleProcAdvance checks that pure computation advances the clock.
func TestSingleProcAdvance(t *testing.T) {
	e := NewEngine(1)
	final, err := e.Run(func(p *Proc) {
		p.Advance(100)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 100 {
		t.Fatalf("final = %d, want 100", final)
	}
}

// TestServiceResume checks the Invoke/ResumeAt handoff.
func TestServiceResume(t *testing.T) {
	e := NewEngine(1)
	final, err := e.Run(func(p *Proc) {
		p.Advance(10)
		p.Invoke(func() { p.ResumeAt(p.Clock() + 25) })
		if p.Clock() != 35 {
			t.Errorf("clock after service = %d, want 35", p.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 35 {
		t.Fatalf("final = %d, want 35", final)
	}
}

// TestMinTimeOrder checks that services from different processors are
// executed in global time order.
func TestMinTimeOrder(t *testing.T) {
	e := NewEngine(3)
	var order []int
	delays := []Time{30, 10, 20}
	_, err := e.Run(func(p *Proc) {
		p.Advance(delays[p.ID])
		p.Invoke(func() {
			order = append(order, p.ID)
			p.ResumeAt(p.Clock())
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEventsBeforeProcs checks that an event at time <= a processor's
// service time fires first.
func TestEventsBeforeProcs(t *testing.T) {
	e := NewEngine(1)
	var log []string
	_, err := e.Run(func(p *Proc) {
		p.Invoke(func() {
			e.Schedule(50, func() { log = append(log, "event") })
			p.ResumeAt(50)
		})
		p.Invoke(func() {
			log = append(log, "service")
			p.ResumeAt(p.Clock())
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0] != "event" || log[1] != "service" {
		t.Fatalf("log = %v, want [event service]", log)
	}
}

// TestBlockAndWake checks external wakeups via events.
func TestBlockAndWake(t *testing.T) {
	e := NewEngine(2)
	var blocked *Proc
	final, err := e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Invoke(func() {
				blocked = p
				p.Block()
			})
			if p.Clock() != 500 {
				t.Errorf("woken at %d, want 500", p.Clock())
			}
		} else {
			p.Advance(100)
			p.Invoke(func() {
				e.Schedule(500, func() { blocked.ResumeAt(500) })
				p.ResumeAt(p.Clock())
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 500 {
		t.Fatalf("final = %d, want 500", final)
	}
}

// TestDeadlockDetection checks that a stuck simulation errors out instead of
// hanging, whichever processor's handoff finds the deadlock, and that every
// processor goroutine is joined.
func TestDeadlockDetection(t *testing.T) {
	t.Run("one proc", func(t *testing.T) {
		before := runtime.NumGoroutine()
		e := NewEngine(1)
		_, err := e.Run(func(p *Proc) {
			p.Invoke(func() { p.Block() })
		})
		if err == nil {
			t.Fatal("expected deadlock error")
		}
		checkNoLeak(t, before)
	})
	// Processor 0 blocks for good and parks; processor 1's own handoff then
	// finds nothing left to run — from its Invoke, or as it exits.
	for _, tc := range []struct {
		name string
		exit bool
		want string
	}{
		{"found in invoke", false, "sim: deadlock at cycle 10: 2 processors blocked"},
		{"found on exit", true, "sim: deadlock at cycle 10: 1 processors blocked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine(2)
			_, err := e.Run(func(p *Proc) {
				if p.ID == 0 {
					p.Invoke(func() { p.Block() })
					t.Error("deadlocked processor resumed into app code")
					return
				}
				p.Advance(10)
				p.Invoke(func() { p.ResumeAt(p.Clock()) })
				if !tc.exit {
					p.Invoke(func() { p.Block() })
					t.Error("deadlocked processor resumed into app code")
				}
			})
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("err = %v, want prefix %q", err, tc.want)
			}
			checkNoLeak(t, before)
		})
	}
}

// TestDeterminism checks bit-identical replay.
func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine(4)
		var order []int
		_, err := e.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Advance(Time((p.ID*7+i*13)%29 + 1))
				p.Invoke(func() {
					order = append(order, p.ID)
					p.ResumeAt(p.Clock() + 3)
				})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// TestScheduleInPast checks that scheduling in the past aborts the run.
func TestScheduleInPast(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	_, err := e.Run(func(p *Proc) {
		p.Advance(100)
		p.Invoke(func() {
			e.Schedule(10, func() {})
			p.ResumeAt(p.Clock())
		})
	})
	if err == nil {
		t.Fatal("expected error for scheduling in the past")
	}
	checkNoLeak(t, before)
}

// TestRandomSchedulesProperty is a property test: for arbitrary interleaved
// compute/service patterns, the simulation terminates, time is monotone per
// processor, and the final time equals the largest completion clock.
func TestRandomSchedulesProperty(t *testing.T) {
	run := func(seed int64) {
		e := NewEngine(6)
		finals := make([]Time, 6)
		_, err := e.Run(func(p *Proc) {
			x := uint64(seed) + uint64(p.ID)*0x9E3779B97F4A7C15
			prev := Time(0)
			for i := 0; i < 40; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				p.Advance(Time(x % 50))
				if p.Clock() < prev {
					t.Errorf("clock regressed")
				}
				prev = p.Clock()
				delay := Time(x % 97)
				p.Invoke(func() { p.ResumeAt(p.Clock() + delay) })
				if p.Clock() != prev+delay {
					t.Errorf("service resume mismatch")
				}
				prev = p.Clock()
			}
			finals[p.ID] = p.Clock()
		})
		if err != nil {
			t.Fatal(err)
		}
		var max Time
		for _, f := range finals {
			if f > max {
				max = f
			}
		}
		if e.Now() != max {
			t.Fatalf("final time %d != max completion %d", e.Now(), max)
		}
	}
	for seed := int64(1); seed <= 25; seed++ {
		run(seed)
	}
}

// TestEventOrderingWithinCycle checks events at the same cycle fire in
// scheduling order.
func TestEventOrderingWithinCycle(t *testing.T) {
	e := NewEngine(1)
	var log []int
	_, err := e.Run(func(p *Proc) {
		p.Invoke(func() {
			for i := 0; i < 5; i++ {
				i := i
				e.Schedule(100, func() { log = append(log, i) })
			}
			p.ResumeAt(200)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range log {
		if v != i {
			t.Fatalf("same-cycle events out of order: %v", log)
		}
	}
}

// TestInterruptAborts checks a firing Interrupt hook stops the run with its
// error and joins every processor goroutine (no leaks).
func TestInterruptAborts(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("cancelled")
	e := NewEngine(4)
	polls := 0
	e.Interrupt = func() error {
		polls++
		if polls >= 2 {
			return boom
		}
		return nil
	}
	_, err := e.Run(func(p *Proc) {
		for { // never terminates on its own
			p.Advance(1)
			p.Invoke(func() { p.ResumeAt(p.Clock()) })
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	// All four processor goroutines must have unwound.
	checkNoLeak(t, before)
}

// TestInterruptCleanRunUnchanged checks a non-firing Interrupt cannot
// perturb the simulated timeline.
func TestInterruptCleanRunUnchanged(t *testing.T) {
	run := func(hook bool) Time {
		e := NewEngine(3)
		if hook {
			e.Interrupt = func() error { return nil }
		}
		final, err := e.Run(func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Advance(Time(p.ID + 1))
				p.Invoke(func() { p.ResumeAt(p.Clock() + 2) })
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return final
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("interrupt hook changed the timeline: %d vs %d", a, b)
	}
}

// TestProcPanicBecomesError checks a panic in app code is recovered into a
// run error instead of crashing the process, and the sibling processors are
// unwound.
func TestProcPanicBecomesError(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(2)
	_, err := e.Run(func(p *Proc) {
		if p.ID == 1 {
			p.Advance(10)
			p.Invoke(func() { p.ResumeAt(p.Clock()) })
			panic("app bug")
		}
		for i := 0; i < 1000; i++ {
			p.Advance(1)
			p.Invoke(func() { p.ResumeAt(p.Clock()) })
		}
	})
	if err == nil {
		t.Fatal("expected an error from the panicking processor")
	}
	checkNoLeak(t, before)
}

// TestEventsCascade checks an event may schedule another event at the same
// cycle and it still fires before later work.
func TestEventsCascade(t *testing.T) {
	e := NewEngine(1)
	var log []string
	_, err := e.Run(func(p *Proc) {
		p.Invoke(func() {
			e.Schedule(50, func() {
				log = append(log, "a")
				e.Schedule(50, func() { log = append(log, "b") })
			})
			p.ResumeAt(60)
		})
		p.Invoke(func() {
			log = append(log, "proc")
			p.ResumeAt(p.Clock())
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "proc"}
	if len(log) != 3 || log[0] != want[0] || log[1] != want[1] || log[2] != want[2] {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// TestScheduleAtNow checks an event scheduled at exactly the current cycle is
// legal and fires before the scheduling processor's next service
// (events-first tie-break), even though that processor holds the baton.
func TestScheduleAtNow(t *testing.T) {
	e := NewEngine(1)
	var log []string
	_, err := e.Run(func(p *Proc) {
		p.Advance(10)
		p.Invoke(func() {
			e.Schedule(e.Now(), func() { log = append(log, "event") })
			p.ResumeAt(p.Clock())
		})
		p.Invoke(func() {
			log = append(log, "service")
			p.ResumeAt(p.Clock())
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0] != "event" || log[1] != "service" {
		t.Fatalf("log = %v, want [event service]", log)
	}
}

// TestInlineServiceSelfWake checks a service run by its own processor's
// handoff may block that processor and schedule the event that resumes it.
func TestInlineServiceSelfWake(t *testing.T) {
	e := NewEngine(1)
	final, err := e.Run(func(p *Proc) {
		p.Advance(5)
		p.Invoke(func() {
			wake := p.Clock() + 40
			e.Schedule(wake, func() { p.ResumeAt(wake) })
			p.Block()
		})
		if p.Clock() != 45 {
			t.Errorf("woken at %d, want 45", p.Clock())
		}
		// Immediate self-resume: the scheduler selects this processor again
		// (no handoff).
		p.Invoke(func() { p.ResumeAt(p.Clock() + 7) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 52 {
		t.Fatalf("final = %d, want 52", final)
	}
}

// TestInterruptDuringInlinePath checks an Interrupt poll that fires while a
// processor keeps the baton across its own services still aborts the run
// cleanly: the processor unwinds itself, returns the baton to Run, and every
// goroutine unwinds.
func TestInterruptDuringInlinePath(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("cancelled")
	e := NewEngine(1)
	e.Interrupt = func() error { return boom }
	services := 0
	_, err := e.Run(func(p *Proc) {
		// A single processor with no pending events is selected again by
		// every Invoke, so the firing poll lands in its own scheduler pass,
		// between a service and its resume or before the next service.
		for i := 0; i < 1_000_000; i++ {
			p.Advance(1)
			p.Invoke(func() { services++; p.ResumeAt(p.Clock()) })
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if services >= 1_000_000 {
		t.Fatal("interrupt never fired")
	}
	checkNoLeak(t, before)
}

// TestDrainWithInlineParkedProc checks the abort path unwinds a processor
// that is parked mid-Invoke (its own handoff ran the service that blocked it,
// then passed the baton on) when a sibling fails the run.
func TestDrainWithInlineParkedProc(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(2)
	_, err := e.Run(func(p *Proc) {
		if p.ID == 0 {
			// Earliest actor: its own handoff runs the service, which blocks
			// it, and it parks on resume; the wake event is far enough out
			// that the sibling fails first.
			p.Invoke(func() {
				e.Schedule(1000, func() { p.ResumeAt(1000) })
				p.Block()
			})
			t.Error("poisoned processor resumed into app code")
			return
		}
		p.Advance(10)
		p.Invoke(func() { panic("proto bug") })
	})
	if err == nil {
		t.Fatal("expected an error from the panicking service")
	}
	checkNoLeak(t, before)
}

// TestEventPanicInHandoff checks a panicking event fired by a processor's
// handoff (not Run's goroutine) fails the run with an engine-panic error and
// unwinds both the firing processor and a parked sibling.
func TestEventPanicInHandoff(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(2)
	_, err := e.Run(func(p *Proc) {
		if p.ID == 0 {
			// Blocks and parks; its wake event is never reached.
			p.Invoke(func() {
				e.Schedule(1000, func() { p.ResumeAt(1000) })
				p.Block()
			})
			t.Error("poisoned processor resumed into app code")
			return
		}
		p.Advance(10)
		// This Invoke's scheduler pass runs the service, then fires the
		// event at cycle 50 before resuming the processor at 100.
		p.Invoke(func() {
			e.Schedule(50, func() { panic("proto bug") })
			p.ResumeAt(100)
		})
		t.Error("processor resumed after its handoff failed the run")
	})
	if err == nil || !strings.HasPrefix(err.Error(), "sim: engine panic at cycle 50") {
		t.Fatalf("err = %v, want prefix %q", err, "sim: engine panic at cycle 50")
	}
	checkNoLeak(t, before)
}
