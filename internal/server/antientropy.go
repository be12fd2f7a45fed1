package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Anti-entropy repair.
//
// Rebalance and hinted handoff are push-based and best-effort: a crash
// mid-pass, an evicted hint, or a node that was down while its keys moved
// all leave replica gaps. The anti-entropy sweep is the pull-based
// backstop that finds and heals them: periodically, each node compares a
// cheap per-range digest of its shareable keys with each live peer — keys
// both nodes replicate, bucketed into 16 ranges by the key's first hex
// nibble — and only on a digest mismatch fetches the range's key list,
// pulling the keys it lacks and pushing the ones the peer lacks.
//
// Correctness never depends on this loop (every value is recomputable);
// it exists so the cluster converges back to full replication after churn
// without waiting for client traffic to fault keys back in. A quiesced,
// fully replicated cluster answers every digest exchange with a match, so
// the steady-state cost is 16 small GETs per peer per period.

// antiEntropyRanges buckets keys by their first hex nibble.
const antiEntropyRanges = 16

// DigestResponse is the GET /v1/cluster/digest body: one range's key
// count and XOR digest, valid only at Epoch.
type DigestResponse struct {
	Epoch  uint64 `json:"epoch"`
	Count  int    `json:"count"`
	Digest string `json:"digest"` // 16 hex chars
}

// KeysResponse is the GET /v1/cluster/keys body: one range's shareable
// key list, valid only at Epoch.
type KeysResponse struct {
	Epoch uint64   `json:"epoch"`
	Keys  []string `json:"keys"`
}

// AntiEntropyStatus summarizes the sweep on GET /v1/cluster.
type AntiEntropyStatus struct {
	Passes uint64 `json:"passes"`
	Pulled uint64 `json:"pulled"` // keys fetched from a peer that had them
	Pushed uint64 `json:"pushed"` // keys pushed to a peer that lacked them
	// LastRepaired is the previous completed pass's pulled+pushed total; a
	// converged cluster reports 0.
	LastRepaired uint64 `json:"last_repaired"`
}

// startAntiEntropy launches the periodic sweep.
func (s *Server) startAntiEntropy() {
	interval := s.cfg.AntiEntropyInterval
	if interval <= 0 {
		interval = time.Minute
	}
	s.antiStop = make(chan struct{})
	s.antiDone = make(chan struct{})
	go func() {
		defer close(s.antiDone)
		t := time.NewTimer(jitter(interval))
		defer t.Stop()
		for {
			select {
			case <-s.antiStop:
				return
			case <-t.C:
				s.AntiEntropyPass(s.base)
				t.Reset(jitter(interval))
			}
		}
	}()
}

// stopAntiEntropy stops the sweep, if running. Idempotent.
func (s *Server) stopAntiEntropy() {
	if s.antiStop == nil {
		return
	}
	s.antiOnce.Do(func() { close(s.antiStop) })
	<-s.antiDone
}

// AntiEntropyStatus snapshots the sweep's counters.
func (s *Server) AntiEntropyStatus() AntiEntropyStatus {
	s.antiMu.Lock()
	defer s.antiMu.Unlock()
	return s.anti
}

// keyRange returns the anti-entropy bucket of a hex key.
func keyRange(key string) int {
	c := key[0]
	if c >= 'a' {
		return int(c-'a') + 10
	}
	return int(c - '0')
}

// keyDigest folds one key into a range digest: the first 16 hex chars of
// an SHA-256 key are already uniformly distributed, so their XOR (plus the
// count) detects any single-key set difference.
func keyDigest(key string) uint64 {
	v, _ := strconv.ParseUint(key[:16], 16, 64)
	return v
}

// sharedRangeKeys lists the locally resident keys of one range that both
// self and peer replicate under the given ring view — the set the digest
// exchange compares. Sorted (store.Keys is sorted).
func (s *Server) sharedRangeKeys(rng int, peer string) (epoch uint64, keys []string) {
	cl := s.cfg.Cluster
	epoch, ring := cl.View()
	rf := cl.Replication()
	self := cl.Self()
	for _, key := range s.cfg.Store.Keys() {
		if keyRange(key) != rng {
			continue
		}
		selfIn, peerIn := false, false
		for _, p := range ring.Replicas(key, rf) {
			if p == self {
				selfIn = true
			}
			if p == peer {
				peerIn = true
			}
		}
		if selfIn && peerIn {
			keys = append(keys, key)
		}
	}
	return epoch, keys
}

// AntiEntropyPass runs one full sweep against every live member and
// returns how many keys it pulled and pushed; 0,0 means the node's view of
// every replica pair is converged. The background loop calls it every
// AntiEntropyInterval; tests and operators may force a pass.
func (s *Server) AntiEntropyPass(ctx context.Context) (pulled, pushed int) {
	st, cl := s.cfg.Store, s.cfg.Cluster
	if st == nil || cl == nil {
		return 0, 0
	}
	epoch, _ := cl.View()
	self := cl.Self()
	for _, peer := range cl.Peers() {
		if peer == self || !cl.Up(peer) {
			continue
		}
		for rng := 0; rng < antiEntropyRanges; rng++ {
			if ctx.Err() != nil || cl.Epoch() != epoch {
				return pulled, pushed // shutdown or ring moved; next pass re-syncs
			}
			localEpoch, local := s.sharedRangeKeys(rng, peer)
			if localEpoch != epoch {
				return pulled, pushed
			}
			var digest uint64
			for _, k := range local {
				digest ^= keyDigest(k)
			}
			remote, err := s.peerClient(peer).rangeDigest(ctx, rng, self)
			if err != nil {
				s.cfg.Log.Printf("anti-entropy: digest %s range %d: %v", peer, rng, err)
				break // peer unreachable or confused; try again next pass
			}
			if remote.Epoch != epoch {
				break // views disagree; gossip converges them first
			}
			if remote.Count == len(local) && remote.Digest == fmt.Sprintf("%016x", digest) {
				continue // ranges match — the steady-state path
			}
			rk, err := s.peerClient(peer).rangeKeys(ctx, rng, self)
			if err != nil || rk.Epoch != epoch {
				break
			}
			remoteSet := make(map[string]bool, len(rk.Keys))
			for _, k := range rk.Keys {
				remoteSet[k] = true
			}
			localSet := make(map[string]bool, len(local))
			for _, k := range local {
				localSet[k] = true
			}
			// Pull what the peer has and we lack; push what we have and it
			// lacks. Both transfers are unconditional-write safe.
			for _, k := range rk.Keys {
				if localSet[k] {
					continue
				}
				body, found, err := s.peerClient(peer).Lookup(ctx, k)
				if err != nil || !found {
					continue
				}
				s.storeFill(k, body)
				pulled++
				s.m.add(&s.m.antiEntropyPulled)
			}
			var lacks []string
			for _, k := range local {
				if !remoteSet[k] {
					lacks = append(lacks, k)
				}
			}
			// Keys evicted since the digest come back transferGone:
			// recomputable, so not a failure.
			for _, o := range s.transfer(ctx, "anti-entropy", peer, lacks, nil) {
				if o == transferStored {
					pushed++
					s.m.add(&s.m.antiEntropyPushed)
				}
			}
		}
	}
	s.m.add(&s.m.antiEntropyPasses)
	s.antiMu.Lock()
	s.anti.Passes++
	s.anti.Pulled += uint64(pulled)
	s.anti.Pushed += uint64(pushed)
	s.anti.LastRepaired = uint64(pulled + pushed)
	s.antiMu.Unlock()
	return pulled, pushed
}

// handleDigest serves GET /v1/cluster/digest?range=R&peer=P: the count and
// XOR digest of this node's resident keys in range R that both this node
// and P replicate. Chaos-exempt, like the other introspection endpoints.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	rng, peer, ok := s.digestParams(w, r, "/v1/cluster/digest")
	if !ok {
		return
	}
	epoch, keys := s.sharedRangeKeys(rng, peer)
	var digest uint64
	for _, k := range keys {
		digest ^= keyDigest(k)
	}
	s.m.request("/v1/cluster/digest", http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(DigestResponse{Epoch: epoch, Count: len(keys), Digest: fmt.Sprintf("%016x", digest)})
}

// handleRangeKeys serves GET /v1/cluster/keys?range=R&peer=P: the key list
// behind handleDigest, fetched only on digest mismatch.
func (s *Server) handleRangeKeys(w http.ResponseWriter, r *http.Request) {
	rng, peer, ok := s.digestParams(w, r, "/v1/cluster/keys")
	if !ok {
		return
	}
	epoch, keys := s.sharedRangeKeys(rng, peer)
	if keys == nil {
		keys = []string{}
	}
	s.m.request("/v1/cluster/keys", http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(KeysResponse{Epoch: epoch, Keys: keys})
}

// digestParams validates the shared query parameters of the anti-entropy
// endpoints.
func (s *Server) digestParams(w http.ResponseWriter, r *http.Request, path string) (rng int, peer string, ok bool) {
	if r.Method != http.MethodGet {
		s.writeError(w, path, http.StatusMethodNotAllowed, "GET only")
		return 0, "", false
	}
	if s.cfg.Cluster == nil || s.cfg.Store == nil {
		s.writeError(w, path, http.StatusNotFound, "not clustered")
		return 0, "", false
	}
	rng, err := strconv.Atoi(r.URL.Query().Get("range"))
	if err != nil || rng < 0 || rng >= antiEntropyRanges {
		s.writeError(w, path, http.StatusBadRequest, "range must be 0..15")
		return 0, "", false
	}
	peer = r.URL.Query().Get("peer")
	if peer == "" {
		s.writeError(w, path, http.StatusBadRequest, "peer is required")
		return 0, "", false
	}
	return rng, peer, true
}
