package server

import (
	"context"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"netcache/internal/cluster"
	"netcache/internal/loop"
	"netcache/internal/runner"
)

// Replica repair: the rebalance pass.
//
// One rule holds the cluster's stores together: every key a node holds is
// present on every node in replicas(key, epoch). A single pass restores it
// after anything that breaks it — a membership change that moves arcs, a
// fallback recompute or read-through fill on a non-replica, a failed push,
// a replica that was down. Values are content-addressed, so every fill is
// unconditional and the pass needs no ordering and no record of why a key
// is owed: a stored key outside this node's replica set is owed to that
// set, and a key both nodes replicate is owed to the peer when the peer's
// digest of its key range differs from ours. Each holder pushes what it
// has, so nothing pulls.
//
// For each key range (first hex nibble) and each ring peer p, the pass
// hands transfer the local keys whose replica set includes p:
//   - keys this node does not replicate, every pass: fallback recomputes,
//     read-through fills, keys that moved away, and a draining node's
//     whole store;
//   - keys both nodes replicate, only when p's digest for the range
//     differs. One GET /v1/cluster/digest per peer returns all 16, and a
//     digest from another epoch, or none at all, counts as different.
//
// One loop runs the pass. A membership adoption, a peer coming back up
// and the -rebalance-interval timer wake it; the timer doubles as the
// retry schedule. The pass works on rangesInFlight ranges at once, and
// one pacing schedule holds all its pushes to -rebalance-rate. It keeps
// no progress record: a pass cut by a crash or a shutdown is walked again
// from range 0 by the next one, whose presence checks skip the keys
// already delivered. A pass stops as soon as a newer epoch is adopted;
// the adoption's wake restarts it against the new ring.
//
// Decommission needs nothing extra: a node that has left the membership
// replicates nothing, so the same pass drains its entire store to the new
// owners, and RebalanceStatus.Done tells the operator it is safe to stop
// the process.

// keyRanges buckets keys by their first hex nibble.
const keyRanges = 16

// rangesInFlight is how many key ranges a pass works on at once, so the
// sender reads one range while the receiver stores another. Two, because
// http.DefaultClient's transport keeps two idle connections per host, so
// both pushes reuse kept-alive connections, and because it bounds a
// serving node's background repair at two pushes per sender. On a 2-vCPU
// host four moved only 9% more keys per second, for more receiver load
// and memory.
const rangesInFlight = 2

// RangeDigest summarizes a set of keys in one range: its size and the XOR
// of each key's first 64 bits. SHA-256 keys are uniformly distributed, so
// a single-key difference always shows.
type RangeDigest struct {
	Count int    `json:"count"`
	XOR   uint64 `json:"xor,string"`
}

func (d *RangeDigest) add(key string) {
	v, _ := strconv.ParseUint(key[:16], 16, 64)
	d.Count++
	d.XOR ^= v
}

// DigestResponse is the GET /v1/cluster/digest body: per key range, the
// digest of the resident keys both the answering node and the asking
// peer replicate, valid only at Epoch.
type DigestResponse struct {
	Epoch  uint64                 `json:"epoch"`
	Ranges [keyRanges]RangeDigest `json:"ranges"`
}

// RebalanceStatus is one node's replica-repair progress, exposed on
// GET /v1/cluster.
type RebalanceStatus struct {
	// Epoch is the membership epoch the last (or current) pass priced
	// keys against.
	Epoch uint64 `json:"epoch"`
	// Done reports that a full pass at Epoch completed with nothing owed:
	// every key this node holds is present on every replica that should
	// hold it, as far as this node can see. A draining node with Done set
	// has finished handing off and can be stopped.
	Done bool `json:"done"`
	// Owed counts the key deliveries the last completed pass left undone:
	// failed pushes, and keys owed to replicas that were down.
	Owed uint64 `json:"owed"`
	// Moved counts keys pushed to a replica; Skipped counts keys the
	// replica already had; Errors sums Owed over the completed passes at
	// Epoch.
	Moved   uint64 `json:"moved"`
	Skipped uint64 `json:"skipped"`
	Errors  uint64 `json:"errors"`
}

// startRebalance launches the loop that runs the pass. Its wakes are
// registered before any membership change can land.
func (s *Server) startRebalance() {
	interval := s.cfg.RebalanceInterval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	l := loop.Start(interval, func(ctx context.Context) { s.RebalancePass(ctx) })
	s.cfg.Cluster.OnChange(func(cluster.Membership) { l.Wake() })
	s.cfg.Cluster.OnPeerUp(func(string) { l.Wake() })
	s.rebalancer = l
}

// RebalanceStatus snapshots the pass's progress.
func (s *Server) RebalanceStatus() RebalanceStatus {
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	return s.rebal
}

// rangeWork is what this node holds for one peer in one key range.
type rangeWork struct {
	always []string    // keys this node does not replicate
	shared []string    // keys both replicate
	digest RangeDigest // of shared
}

// planPass prices sorted keys against ring: per peer in some key's
// replica set, per range, the keys that peer should hold.
func planPass(keys []string, ring *cluster.Ring, rf int, self string) map[string]*[keyRanges]rangeWork {
	out := make(map[string]*[keyRanges]rangeWork)
	for _, key := range keys {
		r := keyRange(key)
		reps := ring.Replicas(key, rf)
		mine := slices.Contains(reps, self)
		for _, peer := range reps {
			if peer == self {
				continue
			}
			w := out[peer]
			if w == nil {
				w = new([keyRanges]rangeWork)
				out[peer] = w
			}
			if mine {
				w[r].shared = append(w[r].shared, key)
				w[r].digest.add(key)
			} else {
				w[r].always = append(w[r].always, key)
			}
		}
	}
	return out
}

// RebalancePass makes every local key present on every replica that
// should hold it under the current ring, rangesInFlight key ranges at a
// time and peer by peer within a range, through transfer. It returns how
// many keys it pushed and how many the replicas already had. Passes run
// one at a time; the loop runs one on every wake, and tests and operators
// may force one.
func (s *Server) RebalancePass(ctx context.Context) (moved, skipped int) {
	st, cl := s.cfg.Store, s.cfg.Cluster
	if st == nil || cl == nil {
		return 0, 0
	}
	s.passMu.Lock()
	defer s.passMu.Unlock()
	epoch, ring := cl.View()
	self := cl.Self()
	work := planPass(st.Keys(), ring, cl.Replication(), self)
	peers := make([]string, 0, len(work))
	for peer := range work {
		peers = append(peers, peer)
	}
	slices.Sort(peers)

	// A new epoch starts the status from scratch, keeping only the last
	// completed pass's Owed; a re-walk at the same epoch keeps the
	// published state, so a drained node's Done does not flicker off while
	// a retry pass runs.
	s.rebalMu.Lock()
	if s.rebal.Epoch != epoch {
		s.rebal = RebalanceStatus{Epoch: epoch, Owed: s.rebal.Owed}
	}
	s.rebalMu.Unlock()
	s.m.add(&s.m.rebalancePasses)

	// One digest exchange per live peer that shares keys with us. A peer
	// without a usable digest gets every shared key offered; the presence
	// check inside transfer then sends only what it lacks.
	remote := make(map[string]*DigestResponse)
	for _, peer := range peers {
		shares := slices.ContainsFunc(work[peer][:], func(w rangeWork) bool { return len(w.shared) > 0 })
		if !shares || !cl.Up(peer) {
			continue
		}
		d, err := s.peerClient(peer).rangeDigests(ctx, self)
		if err != nil {
			s.cfg.Log.Printf("rebalance: digest %s: %v", peer, err)
			continue
		}
		if d.Epoch == epoch {
			remote[peer] = &d
		}
	}

	var perKeyDelay time.Duration
	if s.cfg.RebalanceRate > 0 {
		perKeyDelay = time.Second / time.Duration(s.cfg.RebalanceRate)
	}
	current := func() bool { return ctx.Err() == nil && cl.Epoch() == epoch }

	// mu guards the pass's totals and the pacing schedule shared by the
	// ranges in flight.
	var (
		mu     sync.Mutex
		owed   int
		paceAt time.Time // end of the last push's pacing reservation
	)
	// afterPush holds -rebalance-rate on average across every push of the
	// pass: each push reserves its key count over the rate on one schedule,
	// starting where the last reservation ended, and sleeps until its
	// reservation ends. It stops the walk on shutdown or a newer ring.
	afterPush := func(n int) bool {
		if perKeyDelay > 0 {
			mu.Lock()
			if now := time.Now(); paceAt.Before(now) {
				paceAt = now
			}
			paceAt = paceAt.Add(time.Duration(n) * perKeyDelay)
			t := time.NewTimer(time.Until(paceAt))
			mu.Unlock()
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		return current()
	}

	runner.Each(keyRanges, rangesInFlight, func(r int) {
		if !current() {
			return
		}
		var rMoved, rSkipped, rOwed int
		for _, peer := range peers {
			w := &work[peer][r]
			keys := w.always
			if d := remote[peer]; d == nil || d.Ranges[r] != w.digest {
				keys = slices.Concat(w.always, w.shared)
			}
			if len(keys) == 0 {
				continue
			}
			if !cl.Up(peer) {
				// A down replica: pushing would only burn the retry budget.
				// Its recovery wakes the loop.
				rOwed += len(keys)
				continue
			}
			failed := 0
			for _, o := range s.transfer(ctx, peer, keys, afterPush) {
				switch o {
				case transferStored:
					rMoved++
					s.m.add(&s.m.rebalanceMoved)
				case transferPresent:
					rSkipped++
					s.m.add(&s.m.rebalanceSkipped)
				case transferUnsent:
					// Never attempted: the transfer was cut, or ended when the
					// peer went down. Owed, like the keys of a down replica.
					rOwed++
				default:
					// A failed push, or a key evicted or unreadable mid-walk:
					// a draining node must not report Done while a key it
					// failed to deliver never reached its new owner (an
					// injected read fault heals on the retry pass).
					failed++
				}
			}
			rOwed += failed
			s.m.addN(&s.m.rebalanceErrors, failed)
			if !current() {
				break // shutdown, or a newer ring whose wake restarts us
			}
		}

		mu.Lock()
		defer mu.Unlock()
		moved += rMoved
		skipped += rSkipped
		owed += rOwed
	})
	if !current() {
		return moved, skipped // shutdown, or a newer ring whose wake restarts us
	}

	// Full walk completed; the next pass walks every range again and
	// retries whatever is owed.
	s.rebalMu.Lock()
	if s.rebal.Epoch == epoch {
		s.rebal.Done = owed == 0
		s.rebal.Owed = uint64(owed)
		s.rebal.Moved += uint64(moved)
		s.rebal.Skipped += uint64(skipped)
		s.rebal.Errors += uint64(owed)
	}
	s.rebalMu.Unlock()
	if moved > 0 || owed > 0 {
		s.cfg.Log.Printf("rebalance: epoch %d pass: %d moved, %d already present, %d owed", epoch, moved, skipped, owed)
	}
	return moved, skipped
}

// keyRange returns the range of a hex key: its first nibble.
func keyRange(key string) int {
	c := key[0]
	if c >= 'a' {
		return int(c-'a') + 10
	}
	return int(c - '0')
}

// handleDigest serves GET /v1/cluster/digest?peer=P: per key range, the
// digest of this node's resident keys that both it and P replicate.
// Chaos-exempt, like the other introspection endpoints.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	cl := s.cfg.Cluster
	if cl == nil || s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, "not clustered")
		return
	}
	peer := r.URL.Query().Get("peer")
	if peer == "" {
		writeError(w, http.StatusBadRequest, "peer is required")
		return
	}
	epoch, ring := cl.View()
	resp := DigestResponse{Epoch: epoch}
	if work := planPass(s.cfg.Store.Keys(), ring, cl.Replication(), cl.Self())[peer]; work != nil {
		for i := range work {
			resp.Ranges[i] = work[i].digest
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
