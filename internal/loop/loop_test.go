package loop

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// stopWithin calls l.Stop and fails the test if it has not returned after d.
func stopWithin(t *testing.T, l *Loop, d time.Duration) {
	t.Helper()
	stopped := make(chan struct{})
	go func() {
		l.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(d):
		t.Fatalf("Stop did not return within %v", d)
	}
}

// TestStopCancelsRunningPass: Stop cancels the context of the pass in
// flight and returns only after that pass has returned.
func TestStopCancelsRunningPass(t *testing.T) {
	started := make(chan struct{})
	var returned atomic.Bool
	l := Start(time.Hour, func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond) // Stop must wait out the pass's own cleanup
		returned.Store(true)
	})
	l.Wake()
	<-started
	stopWithin(t, l, 5*time.Second)
	if !returned.Load() {
		t.Fatal("Stop returned before the pass did")
	}
}

// TestWakeDuringPassCoalesces: any number of wakes during a pass yield
// exactly one more pass.
func TestWakeDuringPassCoalesces(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{}, 8)
	l := Start(time.Hour, func(ctx context.Context) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	})
	l.Wake()
	<-started
	for i := 0; i < 3; i++ {
		l.Wake()
	}
	release <- struct{}{}
	<-started // the coalesced pass
	if n := len(l.wake); n != 0 {
		t.Fatalf("%d wakes still pending during the coalesced pass; want 0", n)
	}
	release <- struct{}{}
	stopWithin(t, l, 5*time.Second)
	if n := len(started); n != 0 {
		t.Fatalf("%d passes beyond the coalesced one", n)
	}
}

// TestSlowPassIdlesAfter: a pass longer than the interval is followed by
// an idle interval, not by a pass on the tick that fired while it ran.
func TestSlowPassIdlesAfter(t *testing.T) {
	const interval = 20 * time.Millisecond
	gap := make(chan time.Duration, 1)
	var lastEnd time.Time // passes run one at a time, on the loop's goroutine
	l := Start(interval, func(context.Context) {
		if !lastEnd.IsZero() {
			select {
			case gap <- time.Since(lastEnd):
			default:
			}
			return
		}
		time.Sleep(3 * interval)
		lastEnd = time.Now()
	})
	defer stopWithin(t, l, 5*time.Second)
	select {
	case g := <-gap:
		if min := interval * 3 / 4; g < min {
			t.Fatalf("second pass started %v after a slow pass ended; want an idle interval of at least %v", g, min)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no second pass")
	}
}

// TestStopIdempotentAndNilSafe: Stop may be called twice, on a nil loop,
// and a Wake after Stop neither blocks nor runs a pass.
func TestStopIdempotentAndNilSafe(t *testing.T) {
	var never *Loop
	never.Stop()
	l := Start(time.Hour, func(context.Context) { t.Error("pass ran") })
	stopWithin(t, l, 5*time.Second)
	stopWithin(t, l, 5*time.Second)
	l.Wake()
}

// TestJitterBounds: maintenance jitter stays within ±25% of the interval
// and passes tiny intervals through untouched (tests use those to mean
// "immediately").
func TestJitterBounds(t *testing.T) {
	for _, d := range []time.Duration{10 * time.Millisecond, time.Second, time.Hour} {
		lo, hi := d, d
		for i := 0; i < 2000; i++ {
			j := Jitter(d)
			if j < lo {
				lo = j
			}
			if j > hi {
				hi = j
			}
		}
		if min := time.Duration(float64(d) * 0.75); lo < min {
			t.Fatalf("Jitter(%v) went low: %v < %v", d, lo, min)
		}
		if max := time.Duration(float64(d) * 1.25); hi > max {
			t.Fatalf("Jitter(%v) went high: %v > %v", d, hi, max)
		}
		if lo == hi {
			t.Fatalf("Jitter(%v) never varied across 2000 draws", d)
		}
	}
	if got := Jitter(time.Microsecond); got != time.Microsecond {
		t.Fatalf("Jitter(1µs) = %v, want passthrough", got)
	}
}
