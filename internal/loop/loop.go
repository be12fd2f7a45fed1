// Package loop runs a node's periodic background passes: the cluster
// health probe, the rebalance pass, the store scrubber and the compactor.
// Each Loop is one goroutine that runs its pass about every interval and
// at once on Wake, never two passes at a time, until Stop cancels the pass
// in flight and joins the goroutine.
package loop

import (
	"context"
	"math/rand/v2"
	"time"
)

// Loop is one running background loop.
type Loop struct {
	wake   chan struct{}
	cancel context.CancelFunc
	done   chan struct{}
}

// Start runs pass on a new goroutine about every interval (see Jitter) and
// after each Wake. Every pass gets the loop's context, which Stop cancels;
// a pass that must end promptly at shutdown watches it. After each pass
// the timer starts a fresh interval, so a pass longer than the interval is
// followed by an idle interval, never by another pass back to back.
func Start(interval time.Duration, pass func(ctx context.Context)) *Loop {
	ctx, cancel := context.WithCancel(context.Background())
	l := &Loop{wake: make(chan struct{}, 1), cancel: cancel, done: make(chan struct{})}
	go l.run(ctx, interval, pass)
	return l
}

func (l *Loop) run(ctx context.Context, interval time.Duration, pass func(context.Context)) {
	defer close(l.done)
	t := time.NewTimer(Jitter(interval))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
		case <-l.wake:
		case <-t.C:
		}
		if ctx.Err() != nil {
			return
		}
		pass(ctx)
		// Drop a tick that fired while the pass ran.
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		t.Reset(Jitter(interval))
	}
}

// Wake asks for a pass now and never blocks. Wakes that arrive while a
// pass runs coalesce into one more pass.
func (l *Loop) Wake() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Stop cancels the running pass's context and returns once the pass, if
// any, has returned and the loop has exited. It is idempotent, and a nil
// *Loop counts as already stopped.
func (l *Loop) Stop() {
	if l == nil {
		return
	}
	l.cancel()
	<-l.done
}

// Jitter spreads an interval uniformly over [0.75d, 1.25d]: enough spread
// that a fleet of daemons started together (or sharing one filesystem)
// desynchronizes within a few periods, while the mean period stays d.
// Intervals of 1µs or less pass through, so tests can ask for "at once".
// Unlike the simulation path, maintenance timing is free to be
// nondeterministic.
func Jitter(d time.Duration) time.Duration {
	if d <= time.Microsecond {
		return d
	}
	half := int64(d) / 2
	return time.Duration(int64(d) - half/2 + rand.Int64N(half+1))
}
