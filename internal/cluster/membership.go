package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Membership is one immutable version of the cluster's peer set. Epochs
// are totally ordered: a node adopts any membership with a higher epoch
// than its own, so a membership change injected anywhere converges
// cluster-wide through gossip (probe-time pulls plus epoch headers on
// inter-node traffic). Two changes racing to the same epoch on different
// nodes are resolved deterministically — every node prefers the
// lexically greater canonical peer list — so the cluster still converges
// on one ring instead of splitting.
//
// A membership never carries health: it is the routing *shape*, while
// up/down stays per-node advisory state (see Cluster). Because every
// value is content-addressed and recomputable, adopting a new ring is
// always safe — at worst a stale router costs an extra hop or a
// recompute, never a wrong answer.
type Membership struct {
	Epoch uint64   `json:"epoch"`
	Peers []string `json:"peers"`
}

// canonical returns the sorted, deduped peer list joined with commas —
// the identity used for equality and same-epoch conflict resolution.
func (m Membership) canonical() string {
	uniq := make([]string, 0, len(m.Peers))
	seen := make(map[string]bool, len(m.Peers))
	for _, p := range m.Peers {
		if p != "" && !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	sort.Strings(uniq)
	return strings.Join(uniq, ",")
}

// Contains reports whether peer is part of the membership.
func (m Membership) Contains(peer string) bool {
	for _, p := range m.Peers {
		if p == peer {
			return true
		}
	}
	return false
}

// Membership actions accepted by Cluster.Update (and the server's
// POST /v1/cluster/membership endpoint).
const (
	// ActionJoin adds a peer to the ring. Idempotent: joining a member
	// returns the current membership without burning an epoch.
	ActionJoin = "join"
	// ActionRemove force-removes a peer — the operator's fix for a node
	// that died and is not coming back. Its keys re-home immediately, and
	// keys other nodes still owed it are owed to the new replicas instead.
	ActionRemove = "remove"
	// ActionDecommission removes a peer that is still alive: the ring
	// stops routing to it at once, and the node — observing it has left —
	// drains, streaming every local key to its new owners before the
	// operator stops the process. Ring-wise identical to ActionRemove;
	// the distinct name records intent in logs and audit trails.
	ActionDecommission = "decommission"
)

// Update computes and locally adopts the membership produced by applying
// action (ActionJoin, ActionRemove, ActionDecommission) to peer, bumping
// the epoch. It returns the resulting membership — unchanged (and with
// the current epoch) when the action is a no-op, e.g. joining an existing
// member. The caller is responsible for spreading the result to peers;
// gossip will finish the job regardless.
func (c *Cluster) Update(action, peer string) (Membership, error) {
	if peer == "" {
		return Membership{}, fmt.Errorf("cluster: membership %s: empty peer", action)
	}
	c.mu.Lock()
	cur := c.membershipLocked()
	c.mu.Unlock()

	next := Membership{Epoch: cur.Epoch + 1}
	switch action {
	case ActionJoin:
		if cur.Contains(peer) {
			return cur, nil
		}
		next.Peers = append(append([]string(nil), cur.Peers...), peer)
	case ActionRemove, ActionDecommission:
		if !cur.Contains(peer) {
			return cur, nil
		}
		for _, p := range cur.Peers {
			if p != peer {
				next.Peers = append(next.Peers, p)
			}
		}
		if len(next.Peers) == 0 {
			return Membership{}, fmt.Errorf("cluster: membership %s %s would empty the cluster", action, peer)
		}
	default:
		return Membership{}, fmt.Errorf("cluster: unknown membership action %q", action)
	}
	if _, err := c.Adopt(next); err != nil {
		return Membership{}, err
	}
	// Another update may have raced past ours; report whatever won.
	return c.Membership(), nil
}

// Adopt installs m as the current ring if it is newer than the node's
// view: a strictly higher epoch always wins, and the same epoch wins only
// with a lexically greater canonical peer list (the deterministic
// tie-break that lets concurrent same-epoch updates converge). It reports
// whether the view changed. Health state carries over for retained peers;
// new peers start optimistically up. Self leaving the membership is legal
// and flips the node into leaving (drain) mode — see Left.
func (c *Cluster) Adopt(m Membership) (bool, error) {
	ring, err := NewRing(m.Peers, c.cfg.VNodes)
	if err != nil {
		return false, fmt.Errorf("cluster: adopting epoch %d: %w", m.Epoch, err)
	}
	c.mu.Lock()
	if m.Epoch < c.epoch || (m.Epoch == c.epoch && m.canonical() <= c.membershipLocked().canonical()) {
		c.mu.Unlock()
		return false, nil
	}
	prevEpoch := c.epoch
	c.ring, c.epoch = ring, m.Epoch
	c.trackRemotes(ring)
	left := !ring.contains(c.self)
	fns := append([]func(Membership){}, c.onChange...)
	c.mu.Unlock()

	if left {
		c.cfg.Log.Printf("cluster: epoch %d -> %d: self %s removed; entering drain mode", prevEpoch, m.Epoch, c.self)
	} else {
		c.cfg.Log.Printf("cluster: epoch %d -> %d: %d peers", prevEpoch, m.Epoch, len(ring.peers))
	}
	for _, f := range fns {
		f(m)
	}
	return true, nil
}

// Membership snapshots the current membership (epoch + peer set).
func (c *Cluster) Membership() Membership {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.membershipLocked()
}

func (c *Cluster) membershipLocked() Membership {
	return Membership{Epoch: c.epoch, Peers: append([]string(nil), c.ring.peers...)}
}

// Epoch reports the current ring's epoch.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// View atomically snapshots the epoch and its ring, so a caller walking
// many keys (the rebalance pass) prices every key against one consistent
// ring even while gossip swaps it out.
func (c *Cluster) View() (uint64, *Ring) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch, c.ring
}

// Left reports whether this node has been removed from the membership
// (decommissioned or force-removed): it still serves — proxying
// everything — while the rebalance pass drains its keys to their owners.
func (c *Cluster) Left() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.ring.contains(c.self)
}

// OnChange registers f to run after every adopted membership change (the
// new membership is passed). Callbacks run on the adopting goroutine,
// outside the cluster lock; keep them short or hand off.
func (c *Cluster) OnChange(f func(Membership)) {
	c.mu.Lock()
	c.onChange = append(c.onChange, f)
	c.mu.Unlock()
}

// SaveMembership atomically persists m as JSON at path (temp file +
// rename), creating parent directories. A node that crashes mid-churn
// reboots straight into the newest ring it had adopted instead of its
// stale command-line view.
func SaveMembership(path string, m Membership) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "membership-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadMembership reads a membership persisted by SaveMembership. Missing
// or malformed files report ok=false — the caller falls back to its
// configured peer set.
func LoadMembership(path string) (Membership, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Membership{}, false
	}
	var m Membership
	if json.Unmarshal(b, &m) != nil || len(m.Peers) == 0 {
		return Membership{}, false
	}
	return m, true
}
