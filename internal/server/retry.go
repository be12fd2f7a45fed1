package server

import "time"

// RetryPolicy configures the Client's transport-level retries. The zero
// value performs a single attempt (no retries), preserving the historical
// Client behavior; DefaultRetryPolicy returns the recommended production
// settings.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request (<= 1: one).
	MaxAttempts int

	// BaseDelay seeds the exponential backoff: the delay before retry n is
	// BaseDelay<<(n-1), capped at MaxDelay, with full jitter in the upper
	// half of the interval. Default 100ms.
	BaseDelay time.Duration

	// MaxDelay caps the backoff (default 5s). A server-supplied
	// Retry-After overrides the computed backoff but is still capped at
	// max(MaxDelay, Retry-After) bounded by 30s.
	MaxDelay time.Duration

	// AttemptTimeout bounds each individual attempt's wall clock (0: only
	// the request context bounds it). A timed-out attempt is retried.
	AttemptTimeout time.Duration

	// Seed drives the deterministic jitter PRNG (0 behaves as 1), so
	// chaos runs replay identical retry schedules.
	Seed uint64
}

// DefaultRetryPolicy is the recommended client policy: 4 attempts, 100ms
// base backoff, 5s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
}

// PeerRetryPolicy is the budget for a node's calls to the other caches it
// chains to, its ring peers and its -upstream tier: 3 attempts, 50ms base
// backoff, so 75 to 150 ms of backoff in all before a dead remote is
// marked down.
func PeerRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 100 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 5 * time.Second
	}
	return p.MaxDelay
}

// retryAfterCap bounds how long a server-supplied Retry-After can hold the
// client, even when it exceeds the policy's MaxDelay.
const retryAfterCap = 30 * time.Second
