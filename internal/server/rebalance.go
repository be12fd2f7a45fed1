package server

import (
	"context"
	"slices"
	"sort"
	"time"

	"netcache/internal/cluster"
)

// Streaming rebalance.
//
// When a membership change moves part of the key space, the keys do not
// teleport: the nodes that hold them stream them to their new replicas in
// the background, a chunk of keys at a time through transfer — the same
// batched presence check and push that hinted-handoff repair and
// anti-entropy use, safe to issue unconditionally because values are
// content-addressed and immutable. The walk is rate-limited, checkpointed
// through the store's persisted cursor once per cleanly delivered chunk
// (crash mid-rebalance resumes instead of restarting, and never past a key
// that failed), and aborts as soon as a newer epoch is adopted (the
// wake-up that follows restarts it against the new ring).
//
// Decommission rides the same path: a node that observes it has left the
// membership (cluster.Left) is no longer a replica for anything, so the
// very same walk drains its entire store to the new owners — drain-then-
// leave, with RebalanceStatus.Done signalling the operator it is safe to
// stop the process.
//
// A pass is best-effort by design: down targets and failed pushes are
// retried on the next pass, and the anti-entropy sweep heals anything a
// crashed or interrupted pass missed.

// RebalanceStatus is one node's rebalance progress, exposed on
// GET /v1/cluster.
type RebalanceStatus struct {
	// Epoch is the membership epoch the last (or current) walk priced
	// keys against.
	Epoch uint64 `json:"epoch"`
	// Done reports that a full walk at Epoch completed with zero errors —
	// every key this node holds is present on every replica that should
	// hold it (as far as this node can see). A draining node with Done set
	// has finished handing off and can be stopped.
	Done bool `json:"done"`
	// Moved counts keys pushed to a new replica; Skipped counts keys the
	// destination already had; Errors counts failed pushes (retried on the
	// next pass).
	Moved   uint64 `json:"moved"`
	Skipped uint64 `json:"skipped"`
	Errors  uint64 `json:"errors"`
}

// startRebalance launches the background mover: woken by every membership
// adoption and by a periodic timer (which doubles as the retry schedule
// for passes that ended with errors).
func (s *Server) startRebalance() {
	interval := s.cfg.RebalanceInterval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	s.rebalStop = make(chan struct{})
	s.rebalDone = make(chan struct{})
	s.rebalWake = make(chan struct{}, 1)
	s.cfg.Cluster.OnChange(func(cluster.Membership) {
		select {
		case s.rebalWake <- struct{}{}:
		default:
		}
	})
	go func() {
		defer close(s.rebalDone)
		t := time.NewTimer(jitter(interval))
		defer t.Stop()
		for {
			select {
			case <-s.rebalStop:
				return
			case <-s.rebalWake:
			case <-t.C:
			}
			s.RebalancePass(s.base)
			// Drain a tick that fired while the pass ran, so slow passes
			// still leave a full idle interval between walks instead of
			// running back to back.
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			t.Reset(jitter(interval))
		}
	}()
}

// stopRebalance stops the mover, if running. Idempotent.
func (s *Server) stopRebalance() {
	if s.rebalStop == nil {
		return
	}
	s.rebalOnce.Do(func() { close(s.rebalStop) })
	<-s.rebalDone
}

// RebalanceStatus snapshots the mover's progress.
func (s *Server) RebalanceStatus() RebalanceStatus {
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	return s.rebal
}

// RebalancePass walks every locally resident key and pushes the ones whose
// replica set gained members (or lost this node) to the replicas that lack
// them. It prices every key against one consistent ring snapshot, a
// transferBatchKeys chunk at a time: each chunk's keys are grouped by
// destination and moved through transfer. The pass aborts early when a
// newer epoch lands mid-walk — the adoption's wake-up restarts it against
// the new ring. It returns how many keys were pushed and how many the
// destinations already had. The background mover calls it on every
// membership change; tests and operators may force a pass.
func (s *Server) RebalancePass(ctx context.Context) (moved, skipped int) {
	st, cl := s.cfg.Store, s.cfg.Cluster
	if st == nil || cl == nil {
		return 0, 0
	}
	epoch, ring := cl.View()
	prevEpoch, prev := cl.PrevView()
	rf := cl.Replication()
	self := cl.Self()

	// Resume after the persisted cursor if it matches this epoch; a cursor
	// from an older epoch is stale (that walk priced keys against a ring
	// that no longer routes) and is discarded.
	keys := st.Keys()
	if ce, after, ok := st.RebalanceCursor(); ok && ce == epoch {
		keys = keys[sort.Search(len(keys), func(i int) bool { return keys[i] > after }):]
	}

	// A new epoch starts the status from scratch; a re-walk at the same
	// epoch keeps the published state (cumulative counters and, crucially,
	// the Done flag from the last completed walk) — otherwise a retry pass
	// that is slower than the poll interval makes a drained node flicker
	// back to "not drained" and an operator watching /v1/cluster can miss
	// the drain-complete signal entirely.
	s.rebalMu.Lock()
	if s.rebal.Epoch != epoch {
		s.rebal = RebalanceStatus{Epoch: epoch}
	}
	s.rebalMu.Unlock()
	s.m.add(&s.m.rebalancePasses)

	var perKeyDelay time.Duration
	if s.cfg.RebalanceRate > 0 {
		perKeyDelay = time.Second / time.Duration(s.cfg.RebalanceRate)
	}
	current := func() bool { return ctx.Err() == nil && cl.Epoch() == epoch }
	// afterPush holds -rebalance-rate on average — each push sleeps its key
	// count over the rate — and stops the walk on shutdown or a newer ring.
	afterPush := func(sent int) bool {
		if perKeyDelay > 0 {
			t := time.NewTimer(time.Duration(sent) * perKeyDelay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		return current()
	}

	errored := 0
	for start := 0; start < len(keys); start += transferBatchKeys {
		if !current() {
			return moved, skipped // shutdown, or a newer ring whose wake-up restarts us
		}
		chunk := keys[start:min(start+transferBatchKeys, len(keys))]
		byPeer := make(map[string][]string)
		for _, key := range chunk {
			targets := ring.Replicas(key, rf)
			// Fast skip: when the previous ring is known and this key's
			// replica set did not move, there is nothing to stream — the
			// common case, since consistent hashing remaps only the churned
			// peers' share.
			if slices.Contains(targets, self) && prev != nil && prevEpoch < epoch && slices.Equal(prev.Replicas(key, rf), targets) {
				continue
			}
			for _, peer := range targets {
				if peer == self {
					continue
				}
				if !cl.Up(peer) {
					// Down target: the push would only burn the retry
					// budget. Count it as an error so this pass is not Done
					// and the periodic retry (or anti-entropy) finishes the
					// job.
					errored++
					continue
				}
				byPeer[peer] = append(byPeer[peer], key)
			}
		}
		for _, peer := range sortedKeys(byPeer) {
			var failed int
			for _, o := range s.transfer(ctx, "rebalance", peer, byPeer[peer], afterPush) {
				switch o {
				case transferStored:
					moved++
					s.m.add(&s.m.rebalanceMoved)
				case transferPresent:
					skipped++
					s.m.add(&s.m.rebalanceSkipped)
				default:
					// A failed push, or a key evicted or unreadable mid-walk:
					// a draining node must not report Done while a key it
					// failed to deliver never reached its new owner (an
					// injected read fault heals on the retry pass).
					failed++
				}
			}
			errored += failed
			s.m.addN(&s.m.rebalanceErrors, failed)
			if !current() {
				return moved, skipped
			}
		}
		// Checkpoint only a clean prefix: once any key of this pass failed,
		// the cursor stays put, so a pass interrupted later still resumes at
		// or before the failure instead of past it.
		if errored == 0 {
			st.SetRebalanceCursor(epoch, chunk[len(chunk)-1])
		}
	}

	// Full walk completed. With zero errors the walk is done for this
	// epoch and the cursor is retired; with errors the cursor is cleared
	// too — the next pass re-walks from the top (cheap: unchanged keys
	// fast-skip, delivered keys come back present from the presence check)
	// and retries the failures.
	st.ClearRebalanceCursor()
	s.rebalMu.Lock()
	if s.rebal.Epoch == epoch {
		s.rebal.Done = errored == 0
		s.rebal.Moved += uint64(moved)
		s.rebal.Skipped += uint64(skipped)
		s.rebal.Errors += uint64(errored)
	}
	s.rebalMu.Unlock()
	if moved > 0 || errored > 0 {
		s.cfg.Log.Printf("rebalance: epoch %d pass: %d moved, %d already present, %d errors", epoch, moved, skipped, errored)
	}
	return moved, skipped
}
