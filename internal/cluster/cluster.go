package cluster

import (
	"context"
	"fmt"
	"io"
	"log"
	"sync"
	"time"
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

	// ProbeInterval is the peer probe period (<= 0: 2s). The probe itself
	// is installed with SetProbe.
	ProbeInterval time.Duration

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

// Cluster is the node-local view of the peer set: the current versioned
// ring (swapped atomically by membership adoption) plus the remote peers'
// health table. Safe for concurrent use.
type Cluster struct {
	self   string
	rf     int
	cfg    Config
	health *Health // remote peers only; Self is always up

	mu       sync.Mutex
	ring     *Ring  // current ring; immutable once installed
	epoch    uint64 // the ring's membership epoch
	onChange []func(Membership)
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
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	c := &Cluster{
		ring:   ring,
		self:   cfg.Self,
		rf:     cfg.Replication,
		cfg:    cfg,
		health: NewHealth("cluster: peer", cfg.ProbeInterval, cfg.Log),
	}
	c.trackRemotes(ring)
	return c, nil
}

// trackRemotes adds ring's peers other than Self to the health table.
// Peers that leave the ring stay tracked, so a draining (decommissioned)
// node can be pushed to and probed until the operator stops it.
func (c *Cluster) trackRemotes(ring *Ring) {
	for _, p := range ring.peers {
		if p != c.self {
			c.health.Track(p)
		}
	}
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
func (c *Cluster) Up(peer string) bool { return peer == c.self || c.health.Up(peer) }

// MarkUp records a successful exchange with peer (passive detection).
func (c *Cluster) MarkUp(peer string) { c.health.MarkUp(peer) }

// MarkDown records a transport failure reaching peer (passive detection),
// so routing skips it until a probe revives it.
func (c *Cluster) MarkDown(peer string) { c.health.MarkDown(peer) }

// OnPeerUp registers f to run each time a remote peer flips from down to
// up, by probe or by a successful exchange (see Health.OnUp).
func (c *Cluster) OnPeerUp(f func(peer string)) { c.health.OnUp(f) }

// Status snapshots every member's health, sorted by URL (Self included
// while it is a member).
func (c *Cluster) Status() []PeerStatus {
	peers := c.Ring().peers
	out := make([]PeerStatus, 0, len(peers))
	for _, p := range peers {
		if p == c.self {
			out = append(out, PeerStatus{URL: p, Self: true, Up: true})
			continue
		}
		up, since := c.health.State(p)
		out = append(out, PeerStatus{URL: p, Up: up, Since: since})
	}
	return out
}

// SetProbe installs the peer probe; call it before StartProbes.
func (c *Cluster) SetProbe(f func(ctx context.Context, peer string) error) { c.health.SetProbe(f) }

// Member reports whether peer is part of the current membership. Unlike
// health, membership is routing truth.
func (c *Cluster) Member(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.contains(peer)
}

// ProbeNow runs one probe pass over every remote peer: the probe loop's
// body, exported so tests and operators can force a pass.
func (c *Cluster) ProbeNow(ctx context.Context) { c.health.ProbeNow(ctx) }

// StartProbes launches the probe loop (see Health.Start); Close stops it.
func (c *Cluster) StartProbes() { c.health.Start() }

// Close stops the probe loop, cancelling a pass in flight. Idempotent.
func (c *Cluster) Close() { c.health.Close() }
