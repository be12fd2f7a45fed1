// Package cluster turns N netcached daemons into one logical
// content-addressed store.
//
// The key space (hex SHA-256 RunSpec keys) is consistent-hashed over the
// peer set: each peer projects VNodes pseudo-random points onto a
// 64-bit ring, and a key belongs to the first Replication distinct peers
// clockwise from its own hash. Virtual-node positions depend only on
// (peer name, vnode index), never on the peer count or vnode total, which
// gives consistent hashing its defining property: removing a peer
// reassigns only the keys it owned, and adding one steals only the keys
// it now owns — every other key keeps its owner.
//
// Membership is dynamic but versioned: each peer set is frozen into an
// immutable Ring stamped with a membership epoch (see Membership), and
// admin-driven changes — join, remove, decommission — produce a new ring
// at the next epoch that spreads through probe-time gossip and epoch
// headers on inter-node traffic. Health stays a separate, per-node,
// advisory layer: Cluster tracks up/down state fed by an active probe
// loop and by passive observations from the proxy path (a transport
// failure marks the peer down immediately, a successful exchange marks
// it up). Because every result is a deterministic recomputation, neither
// a down peer nor a stale ring view ever threatens correctness — only
// locality — so a wrong guess costs an extra hop or a recompute, and the
// server's rebalance pass restores locality after every ring move.
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// Ring is an immutable consistent-hash ring over one membership's peer
// set. It is safe for concurrent use (it is never mutated after
// construction); membership changes build a new Ring and swap pointers.
type Ring struct {
	peers  []string // sorted, deduped
	vnodes int
	points []point // sorted by hash, ties broken by peer index
}

// point is one virtual node: a position on the 64-bit ring owned by a peer.
type point struct {
	hash uint64
	peer int32 // index into peers
}

// NewRing builds a ring with vnodes virtual nodes per peer (<= 0: 64).
// Peers are deduplicated; at least one is required.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = 64
	}
	seen := make(map[string]bool, len(peers))
	uniq := make([]string, 0, len(peers))
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer name")
		}
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	sort.Strings(uniq)
	r := &Ring{peers: uniq, vnodes: vnodes, points: make([]point, 0, len(uniq)*vnodes)}
	for pi, peer := range uniq {
		// A vnode's position depends only on (peer, index): growing the
		// vnode count preserves every existing point, so re-tuning vnodes
		// remaps a bounded key fraction instead of reshuffling the ring.
		h := hashString(peer)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: mix(h ^ uint64(v)), peer: int32(pi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// Peers returns the sorted peer set.
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// contains reports whether peer is in the ring's peer set.
func (r *Ring) contains(peer string) bool {
	i := sort.SearchStrings(r.peers, peer)
	return i < len(r.peers) && r.peers[i] == peer
}

// VNodes reports the virtual-node count per peer.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the peer owning key: the first peer clockwise from the
// key's ring position.
func (r *Ring) Owner(key string) string { return r.Replicas(key, 1)[0] }

// Replicas returns the first n distinct peers clockwise from key's ring
// position — the owner first, then the peers a replicated write would
// land on. n is clamped to the peer count.
func (r *Ring) Replicas(key string, n int) []string {
	var buf [walkBuf]int32
	idx := r.walk(buf[:0], key, n)
	out := make([]string, len(idx))
	for i, pi := range idx {
		out[i] = r.peers[pi]
	}
	return out
}

// IsReplica reports whether peer is among Replicas(key, n), without
// allocating for n up to walkBuf.
func (r *Ring) IsReplica(key string, n int, peer string) bool {
	var buf [walkBuf]int32
	for _, pi := range r.walk(buf[:0], key, n) {
		if r.peers[pi] == peer {
			return true
		}
	}
	return false
}

// walkBuf is the replica count a walk collects in its caller's stack
// buffer; a larger replication factor grows the buffer on the heap.
const walkBuf = 4

// walk appends to the empty dst the first n distinct peer indices
// clockwise from hash(key). A replica set is a handful of peers, so a scan
// of those found so far checks distinctness.
func (r *Ring) walk(dst []int32, key string, n int) []int32 {
	if n <= 0 {
		n = 1
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	h := mix(hashString(key))
	// First point with hash >= h, wrapping at the top of the ring.
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(dst) < n; i++ {
		if p := r.points[(start+i)%len(r.points)].peer; !slices.Contains(dst, p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// mix is splitmix64's finalizer — the same avalanche the fault injector
// uses, so ring placement quality is already chaos-test proven.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a 64, dependency-free.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
