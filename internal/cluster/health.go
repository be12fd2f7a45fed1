package cluster

import (
	"context"
	"io"
	"log"
	"sync"
	"time"

	"netcache/internal/loop"
)

// probeTimeout bounds one probe of one remote.
const probeTimeout = 2 * time.Second

// Health is a node's up/down table for the remotes it calls: the ring's
// peers, or the upstream tier. A transport failure on the request path
// marks a remote down until a probe or a successful exchange marks it up.
// A reply of any status, 5xx included, never marks it down: the remote
// answered. The probe is stricter and marks down on any error, so on any
// non-200 reply, which is how a draining node (503) leaves routing.
type Health struct {
	label    string // log prefix, e.g. "cluster: peer"
	interval time.Duration
	log      *log.Logger

	mu     sync.Mutex
	state  map[string]*remoteState
	onUp   []func(remote string)
	probe  func(ctx context.Context, remote string) error
	prober *loop.Loop // nil until Start
}

type remoteState struct {
	up    bool
	since time.Time // last transition
}

// NewHealth returns an empty table whose probe loop, once started, runs
// about every interval (<= 0: 2s). Transitions are logged to lg (nil
// discards) as "<label> <remote> up" or "... down".
func NewHealth(label string, interval time.Duration, lg *log.Logger) *Health {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	return &Health{label: label, interval: interval, log: lg, state: make(map[string]*remoteState)}
}

// Track adds the remotes the table does not know yet, optimistically up.
func (h *Health) Track(remotes ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range remotes {
		if h.state[r] == nil {
			h.state[r] = &remoteState{up: true}
		}
	}
}

// Up reports remote's health; untracked remotes are down.
func (h *Health) Up(remote string) bool {
	up, _ := h.State(remote)
	return up
}

// State reports remote's health and the time of its last transition.
func (h *Health) State(remote string) (up bool, since time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.state[remote]; s != nil {
		return s.up, s.since
	}
	return false, time.Time{}
}

// MarkUp records a successful exchange with, or probe of, remote.
func (h *Health) MarkUp(remote string) { h.mark(remote, true) }

// MarkDown records a transport failure reaching remote.
func (h *Health) MarkDown(remote string) { h.mark(remote, false) }

// mark sets a tracked remote's state and, on a flip to up, runs the OnUp
// callbacks.
func (h *Health) mark(remote string, up bool) {
	h.mu.Lock()
	s := h.state[remote]
	if s == nil || s.up == up {
		h.mu.Unlock()
		return
	}
	s.up, s.since = up, time.Now()
	fns := append([]func(string){}, h.onUp...)
	h.mu.Unlock()
	if !up {
		h.log.Printf("%s %s down", h.label, remote)
		return
	}
	h.log.Printf("%s %s up", h.label, remote)
	for _, f := range fns {
		f(remote)
	}
}

// OnUp registers f to run each time a remote flips from down to up.
// Callbacks run on the marking goroutine, outside the table's lock, and
// must not block.
func (h *Health) OnUp(f func(remote string)) {
	h.mu.Lock()
	h.onUp = append(h.onUp, f)
	h.mu.Unlock()
}

// SetProbe installs the probe; a nil error marks the remote up. Call it
// before Start.
func (h *Health) SetProbe(f func(ctx context.Context, remote string) error) {
	h.mu.Lock()
	h.probe = f
	h.mu.Unlock()
}

// ProbeNow probes every tracked remote once, 2 s at most each, and marks
// it by the outcome. A pass whose ctx ends marks nothing more: the remote
// did not fail, the caller gave up.
func (h *Health) ProbeNow(ctx context.Context) {
	h.mu.Lock()
	probe := h.probe
	remotes := make([]string, 0, len(h.state))
	for r := range h.state {
		remotes = append(remotes, r)
	}
	h.mu.Unlock()
	if probe == nil {
		return
	}
	for _, r := range remotes {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err := probe(pctx, r)
		cancel()
		if ctx.Err() != nil {
			return
		}
		h.mark(r, err == nil)
	}
}

// Start launches the probe loop, which runs ProbeNow about every interval,
// jittered ±25%. It is a no-op without a probe and after the first call.
func (h *Health) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.probe != nil && h.prober == nil {
		h.prober = loop.Start(h.interval, h.ProbeNow)
	}
}

// Close stops the probe loop, if started, cancelling a pass in flight.
// Idempotent.
func (h *Health) Close() {
	h.mu.Lock()
	prober := h.prober
	h.mu.Unlock()
	prober.Stop()
}
