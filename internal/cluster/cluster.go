package cluster

import (
	"context"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"netcache/internal/loop"
)

// Config wires a Cluster.
type Config struct {
	// Self is this node's own entry in Peers (its advertised base URL).
	Self string

	// Peers is the full static peer set, Self included.
	Peers []string

	// VNodes is the virtual-node count per peer (<= 0: 64).
	VNodes int

	// Replication is how many distinct peers each key maps to (<= 0: 1;
	// clamped to the peer count). The first replica is the owner.
	Replication int

	// Probe health-checks one peer; a nil error marks it up. Nil disables
	// active probing (passive observations still apply). The server wires
	// this to the inter-node client's /healthz check.
	Probe func(ctx context.Context, peer string) error

	// ProbeInterval is the active probe period (<= 0: 2s).
	ProbeInterval time.Duration

	// ProbeTimeout bounds one probe attempt (<= 0: 2s).
	ProbeTimeout time.Duration

	// Log receives peer up/down transitions. Nil discards.
	Log *log.Logger
}

// PeerStatus is one peer's health snapshot.
type PeerStatus struct {
	URL   string    `json:"url"`
	Self  bool      `json:"self"`
	Up    bool      `json:"up"`
	Since time.Time `json:"since"` // last up/down transition (zero: never probed down)
}

// peerState is one remote peer's mutable health record.
type peerState struct {
	up    bool
	since time.Time
}

// Cluster is the node-local view of the peer set: the current versioned
// ring (swapped atomically by membership adoption) plus mutable per-peer
// health. Safe for concurrent use.
type Cluster struct {
	self string
	rf   int
	cfg  Config

	mu       sync.Mutex
	ring     *Ring                 // current ring; immutable once installed
	epoch    uint64                // the ring's membership epoch
	peers    map[string]*peerState // remote peers; Self is always up
	onChange []func(Membership)
	onPeerUp []func(peer string)
	prober   *loop.Loop // nil until StartProbes
}

// New validates cfg and builds a Cluster at membership epoch 0. Every
// peer starts optimistically up: the first failed exchange or probe marks
// it down. A joining node bootstraps with Peers = [Self] and adopts the
// cluster's real membership from its seed.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	if !ring.contains(cfg.Self) {
		return nil, fmt.Errorf("cluster: self %q is not in the peer set %v", cfg.Self, ring.Peers())
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	// Replication is intentionally NOT clamped to the bootstrap peer count:
	// the ring clamps per call, so a node that boots alone and then joins a
	// bigger cluster replicates at the configured factor once peers exist.
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	c := &Cluster{
		ring:  ring,
		self:  cfg.Self,
		rf:    cfg.Replication,
		cfg:   cfg,
		peers: make(map[string]*peerState),
	}
	for _, p := range ring.Peers() {
		if p != cfg.Self {
			c.peers[p] = &peerState{up: true}
		}
	}
	return c, nil
}

// Self returns this node's peer URL.
func (c *Cluster) Self() string { return c.self }

// Ring snapshots the current ring, for tests and tooling. Rings are
// immutable; membership changes swap the pointer.
func (c *Cluster) Ring() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// Peers returns the current membership's sorted peer set, Self included
// (unless this node has left).
func (c *Cluster) Peers() []string { return c.Ring().Peers() }

// Replication reports the configured replication factor (clamped to the
// live peer count at each ring walk, not here).
func (c *Cluster) Replication() int { return c.rf }

// Owner returns the peer owning key under the current ring.
func (c *Cluster) Owner(key string) string { return c.Ring().Owner(key) }

// Replicas returns key's replica set under the current ring, owner first.
func (c *Cluster) Replicas(key string) []string { return c.Ring().Replicas(key, c.rf) }

// IsReplica reports whether this node is in key's replica set — i.e.
// whether it should serve the key authoritatively instead of proxying.
func (c *Cluster) IsReplica(key string) bool { return c.Ring().IsReplica(key, c.rf, c.self) }

// Up reports peer's health. Self is always up; unknown peers are down.
func (c *Cluster) Up(peer string) bool {
	if peer == c.self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.peers[peer]
	return s != nil && s.up
}

// MarkUp records a successful exchange with peer (passive detection).
func (c *Cluster) MarkUp(peer string) { c.mark(peer, true) }

// MarkDown records a failed exchange with peer (passive detection), so the
// proxy path stops routing to it without waiting for the next probe pass.
func (c *Cluster) MarkDown(peer string) { c.mark(peer, false) }

func (c *Cluster) mark(peer string, up bool) {
	c.mu.Lock()
	s := c.peers[peer]
	changed := s != nil && s.up != up
	if changed {
		s.up = up
		s.since = time.Now()
	}
	var fns []func(string)
	if changed && up {
		fns = append(fns, c.onPeerUp...)
	}
	c.mu.Unlock()
	if changed {
		if up {
			c.cfg.Log.Printf("cluster: peer %s up", peer)
		} else {
			c.cfg.Log.Printf("cluster: peer %s down", peer)
		}
	}
	for _, f := range fns {
		f(peer)
	}
}

// OnPeerUp registers f to run each time a remote peer's health flips from
// down to up, by probe or by a successful exchange. Callbacks run on the
// marking goroutine, outside the cluster lock, and must not block.
func (c *Cluster) OnPeerUp(f func(peer string)) {
	c.mu.Lock()
	c.onPeerUp = append(c.onPeerUp, f)
	c.mu.Unlock()
}

// Status snapshots every member's health, sorted by URL (Self included
// while it is a member).
func (c *Cluster) Status() []PeerStatus {
	c.mu.Lock()
	out := make([]PeerStatus, 0, len(c.ring.peers))
	for _, p := range c.ring.peers {
		if p == c.self {
			out = append(out, PeerStatus{URL: p, Self: true, Up: true})
			continue
		}
		if s := c.peers[p]; s != nil {
			out = append(out, PeerStatus{URL: p, Up: s.up, Since: s.since})
		} else {
			out = append(out, PeerStatus{URL: p})
		}
	}
	c.mu.Unlock()
	return out
}

// SetProbe installs f as the health probe when none was configured at New.
// It must be called before StartProbes; a configured probe wins.
func (c *Cluster) SetProbe(f func(ctx context.Context, peer string) error) {
	if c.cfg.Probe == nil {
		c.cfg.Probe = f
	}
}

// Member reports whether peer is part of the current membership. Unlike
// health, membership is routing truth.
func (c *Cluster) Member(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.contains(peer)
}

// ProbeNow runs one synchronous probe pass over every remote peer,
// updating health state. It is the probe loop's body, exported so tests
// and operators can force an immediate pass. The peer set is snapshotted
// first: a membership adoption mid-pass swaps the map out from under us.
func (c *Cluster) ProbeNow(ctx context.Context) {
	if c.cfg.Probe == nil {
		return
	}
	c.mu.Lock()
	peers := make([]string, 0, len(c.peers))
	for peer := range c.peers {
		peers = append(peers, peer)
	}
	c.mu.Unlock()
	for _, peer := range peers {
		pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
		err := c.cfg.Probe(pctx, peer)
		cancel()
		c.mark(peer, err == nil)
	}
}

// StartProbes launches the background probe loop, which runs ProbeNow
// about every ProbeInterval, jittered ±25% so a fleet of peers started
// together spreads its probe traffic instead of thundering in lockstep. It
// is a no-op without a Probe function and on every call after the first.
// Close stops it.
func (c *Cluster) StartProbes() {
	if c.cfg.Probe == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prober == nil {
		c.prober = loop.Start(c.cfg.ProbeInterval, c.ProbeNow)
	}
}

// Close stops the probe loop, if started, cancelling a probe pass in
// flight. Idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	prober := c.prober
	c.mu.Unlock()
	prober.Stop()
}
