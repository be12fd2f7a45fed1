package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"netcache/internal/cluster"
)

// Membership epoch plumbing.
//
// Every response from a clustered server carries its membership epoch in
// epochHeader, and every inter-node request stamps the sender's epoch the
// same way. Neither side ever *refuses* based on the epoch — results are
// content-addressed and recomputable, so a stale router can cost an extra
// hop or a recompute but never a wrong answer. The headers exist purely as
// a gossip signal: whichever side observes a higher epoch than its own
// pulls the full membership from the newer peer and adopts it, so a change
// injected at any member spreads along the probe loop and ordinary proxy
// traffic without a dedicated gossip protocol.

// epochHeader carries a node's membership epoch (decimal uint64) on every
// clustered response and every inter-node request.
const epochHeader = "X-Netcached-Epoch"

// membershipActionAdopt is the gossip-push action on POST
// /v1/cluster/membership: the body carries a full membership for the
// receiver to adopt if newer. Unlike the admin actions it never bumps the
// epoch.
const membershipActionAdopt = "adopt"

// maxMembershipBytes caps a POST /v1/cluster/membership body.
const maxMembershipBytes = 1 << 20

// MembershipRequest is the POST /v1/cluster/membership body: an admin
// action (join / remove / decommission) on Peer, or an adopt push
// carrying a full Membership.
type MembershipRequest struct {
	Action     string              `json:"action"`
	Peer       string              `json:"peer,omitempty"`
	Membership *cluster.Membership `json:"membership,omitempty"`
}

// epochWrap stamps the node's membership epoch on every response and
// watches incoming inter-node requests for a higher epoch, triggering an
// async gossip pull from the sender. It is the identity for
// non-clustered servers.
func (s *Server) epochWrap(next http.Handler) http.Handler {
	cl := s.cfg.Cluster
	if cl == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ours := cl.Epoch()
		w.Header().Set(epochHeader, strconv.FormatUint(ours, 10))
		if v := r.Header.Get(epochHeader); v != "" {
			if theirs, err := strconv.ParseUint(v, 10, 64); err == nil && theirs > ours {
				// The sender knows a newer ring. The internode header names
				// its base URL; pull the membership from it off the request
				// path. (If the sender's epoch is *older*, our response
				// header triggers the symmetric pull on its side.)
				if from := r.Header.Get(internodeHeader); from != "" {
					s.syncMembership(from)
				}
			}
		}
		next.ServeHTTP(w, r)
	})
}

// syncMembership pulls peer's membership and adopts it if newer. The pull
// runs on its own goroutine, deduplicated per peer, so a burst of requests
// from a newer peer costs one fetch.
func (s *Server) syncMembership(peer string) {
	s.peerMu.Lock()
	if s.syncing == nil {
		s.syncing = make(map[string]bool)
	}
	if s.syncing[peer] {
		s.peerMu.Unlock()
		return
	}
	s.syncing[peer] = true
	s.peerMu.Unlock()
	go func() {
		defer func() {
			s.peerMu.Lock()
			delete(s.syncing, peer)
			s.peerMu.Unlock()
		}()
		ctx, cancel := context.WithTimeout(s.base, 5*time.Second)
		defer cancel()
		m, err := s.peerClient(peer).Membership(ctx)
		if err != nil {
			return
		}
		if changed, err := s.cfg.Cluster.Adopt(m); err == nil && changed {
			s.m.add(&s.m.membershipSyncs)
		}
	}()
}

// pushMembership offers m to every peer in targets (minus self),
// best-effort and concurrent. Failures are fine: the epoch headers and
// probe-time pulls converge the stragglers.
func (s *Server) pushMembership(m cluster.Membership, targets []string) {
	self := s.cfg.Cluster.Self()
	seen := make(map[string]bool, len(targets))
	for _, peer := range targets {
		if peer == self || peer == "" || seen[peer] {
			continue
		}
		seen[peer] = true
		peer := peer
		go func() {
			ctx, cancel := context.WithTimeout(s.base, 5*time.Second)
			defer cancel()
			if err := s.peerClient(peer).offerMembership(ctx, m); err != nil {
				s.cfg.Log.Printf("cluster: membership push epoch %d to %s: %v", m.Epoch, peer, err)
			}
		}()
	}
}

// handleMembership serves /v1/cluster/membership: GET returns the node's
// current membership (the gossip pull), POST applies an admin action or an
// adopt push. Like the other cluster introspection endpoints it is exempt
// from chaos injection, so operators can reshape the ring mid-storm.
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	cl := s.cfg.Cluster
	if cl == nil {
		writeError(w, http.StatusNotFound, "not clustered")
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.writeMembership(w, cl.Membership())
	case http.MethodPost:
		body, ok := readRequest(w, r, maxMembershipBytes)
		if !ok {
			return
		}
		var req MembershipRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
			return
		}
		switch req.Action {
		case membershipActionAdopt:
			if req.Membership == nil {
				writeError(w, http.StatusBadRequest, "adopt requires a membership")
				return
			}
			if _, err := cl.Adopt(*req.Membership); err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			s.writeMembership(w, cl.Membership())
		case cluster.ActionJoin, cluster.ActionRemove, cluster.ActionDecommission:
			old := cl.Membership()
			m, err := cl.Update(req.Action, req.Peer)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			s.cfg.Log.Printf("cluster: membership %s %s -> epoch %d (%d peers)", req.Action, req.Peer, m.Epoch, len(m.Peers))
			// Push the new ring to everyone affected: current members, old
			// members (a decommissioned node must learn it left so it starts
			// draining), and the subject peer (a joiner learns the full ring).
			targets := append(append([]string{req.Peer}, old.Peers...), m.Peers...)
			s.pushMembership(m, targets)
			s.writeMembership(w, m)
		default:
			writeError(w, http.StatusBadRequest, "unknown action "+strconv.Quote(req.Action))
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

func (s *Server) writeMembership(w http.ResponseWriter, m cluster.Membership) {
	writeJSON(w, http.StatusOK, m)
}
