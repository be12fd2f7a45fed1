package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"netcache"
	"netcache/internal/cluster"
	"netcache/internal/store"
)

// internodeHeader marks a request proxied from a peer. The receiving node
// serves it authoritatively — never re-proxies — so disagreeing ring views
// can cost an extra hop but never a loop.
const internodeHeader = "X-Netcached-Internode"

func isInternode(r *http.Request) bool { return r.Header.Get(internodeHeader) != "" }

// peerClient returns the inter-node client for peer, lazily built, tagged
// with the internode header. Config.Internode substitutes test or custom
// transports; the default makes 3 attempts with 50 ms base backoff
// (PeerRetryPolicy), and that policy is the whole inter-node attempt
// budget:
//   - a dead replica costs one request its 3 attempts, about 75 to 150 ms
//     of backoff, then nothing: proxy marks it down, and routing skips it
//     until a probe revives it;
//   - a replica answering 429 or 5xx costs each request its 3 attempts,
//     then the request goes to the next replica or to the local
//     recompute. The replica stays up, because it answered.
func (s *Server) peerClient(peer string) *Client {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if c, ok := s.peerClients[peer]; ok {
		return c
	}
	var c *Client
	if s.cfg.Internode != nil {
		c = s.cfg.Internode(peer)
	} else {
		c = &Client{BaseURL: peer, Retry: PeerRetryPolicy()}
	}
	if c.Headers == nil {
		c.Headers = map[string]string{}
	}
	if _, ok := c.Headers[internodeHeader]; !ok {
		self := ""
		if s.cfg.Cluster != nil {
			self = s.cfg.Cluster.Self()
		}
		c.Headers[internodeHeader] = self
	}
	if cl := s.cfg.Cluster; cl != nil {
		// Epoch gossip rides every inter-node exchange: requests carry our
		// membership epoch, and a response advertising a newer one triggers
		// an async membership pull from that peer. This is what lets a
		// membership change spread through the existing probe loop — the
		// /healthz response header is the gossip signal.
		if c.PerRequest == nil {
			c.PerRequest = func(h http.Header) {
				h.Set(epochHeader, strconv.FormatUint(cl.Epoch(), 10))
			}
		}
		if c.OnResponse == nil {
			c.OnResponse = func(h http.Header) {
				v := h.Get(epochHeader)
				if v == "" {
					return
				}
				if theirs, err := strconv.ParseUint(v, 10, 64); err == nil && theirs > cl.Epoch() {
					s.syncMembership(peer)
				}
			}
		}
	}
	if s.peerClients == nil {
		s.peerClients = make(map[string]*Client)
	}
	s.peerClients[peer] = c
	return c
}

// proxy forwards a missed key to its replicas in ring order, owner first.
// It returns (outcome, true) when some replica gave an authoritative answer
// — success or a non-retryable contract error — and (zero, false) when ctx
// ends or every replica is unreachable or shedding, in which case the
// caller falls back to recomputing locally.
func (s *Server) proxy(ctx context.Context, key string, spec netcache.RunSpec) (outcome, bool) {
	cl := s.cfg.Cluster
	for _, peer := range cl.Replicas(key) {
		if peer == cl.Self() {
			continue // unreachable in practice: the caller checked IsReplica
		}
		if !cl.Up(peer) {
			continue // known down; don't burn the retry budget on it
		}
		raw, err := s.peerClient(peer).RunRaw(ctx, spec)
		if err == nil {
			cl.MarkUp(peer)
			s.m.peerAdd(s.m.clusterProxied, peer)
			// Read-through fill: the proxied bytes are content-addressed
			// and immutable, so caching them locally is always safe and
			// turns the next hit on this key into a local store read.
			s.storeFill(key, raw)
			return outcome{code: http.StatusOK, body: raw}, true
		}
		s.m.peerAdd(s.m.clusterProxyFails, peer)
		var se *StatusError
		if errors.As(err, &se) {
			// The peer is alive and answered; don't mark it down. Its
			// verdict is authoritative for contract errors (4xx), while
			// 429/5xx mean "alive but cannot serve" — recomputing locally
			// beats failing the request.
			if !retryableStatus(se.Code) {
				return outcome{code: se.Code, errMsg: se.Msg}, true
			}
			continue
		}
		if ctx.Err() != nil {
			return outcome{}, false
		}
		// Transport-level failure after the client's own retries: the peer
		// is gone. Mark it down so subsequent requests skip straight to the
		// fallback until a probe (or a successful exchange) revives it.
		cl.MarkDown(peer)
		s.cfg.Log.Printf("cluster: proxy %s to %s: %v", key[:8], peer, err)
	}
	return outcome{}, false
}

// upstreamFetch consults the read-through upstream tier with a store-only
// lookup (never triggering an upstream simulation). While the upstream is
// down it is skipped: a dead tier costs one failed lookup, then none until
// a probe revives it.
func (s *Server) upstreamFetch(ctx context.Context, key string) ([]byte, bool) {
	up := s.cfg.Upstream.BaseURL
	if !s.upstreamHealth.Up(up) {
		return nil, false
	}
	body, found, err := s.cfg.Upstream.Lookup(ctx, key)
	if err != nil {
		s.m.add(&s.m.upstreamErrors)
		s.cfg.Log.Printf("upstream lookup %s: %v", key[:8], err)
		// proxy's rule: only a transport failure marks the upstream down.
		var se *StatusError
		if !errors.As(err, &se) && ctx.Err() == nil {
			s.upstreamHealth.MarkDown(up)
		}
		return nil, false
	}
	if !found {
		s.m.add(&s.m.upstreamMisses)
		return nil, false
	}
	s.m.add(&s.m.upstreamHits)
	return body, true
}

// storeFill persists a result simulated here or obtained from a peer or
// upstream, honoring degraded-mode gating. A value that is not JSON is not
// stored: a replica's push endpoint would refuse it, so a non-replica
// holding it would owe it forever. The caller's reply is unchanged.
func (s *Server) storeFill(key string, body []byte) {
	if s.cfg.Store == nil || !s.allowPut() {
		return
	}
	if !json.Valid(body) {
		s.m.add(&s.m.fillsRefused)
		s.cfg.Log.Printf("store fill %s: value is not JSON; not stored", key[:8])
		return
	}
	if err := s.cfg.Store.Put(key, body); err != nil {
		s.putFailed(key, err)
	} else {
		s.putSucceeded()
	}
}

// --- cluster endpoints ------------------------------------------------------

// maxPushBytes caps a POST /v1/results body.
const maxPushBytes = 64 << 20

// handleResult serves GET /v1/result/{key}: a store-only lookup that never
// simulates — the upstream read-through primitive.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/result/")
	if !store.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "key must be 64 hex chars")
		return
	}
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, "no store configured")
		return
	}
	body, ok := s.cfg.Store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "not cached")
		return
	}
	s.m.add(&s.m.storeServed)
	writeSized(w, http.StatusOK, body)
}

// ClusterResponse is the GET /v1/cluster body.
type ClusterResponse struct {
	Enabled     bool                 `json:"enabled"`
	Self        string               `json:"self,omitempty"`
	VNodes      int                  `json:"vnodes,omitempty"`
	Replication int                  `json:"replication,omitempty"`
	Peers       []cluster.PeerStatus `json:"peers,omitempty"`
	Upstream    string               `json:"upstream,omitempty"`

	// Epoch is the membership epoch this node routes with; Left reports
	// that this node has been decommissioned out of the membership and is
	// draining its keys to the remaining owners.
	Epoch uint64 `json:"epoch"`
	Left  bool   `json:"left,omitempty"`

	// Rebalance is the replica-repair status: Owed is the backlog signal,
	// and a draining node is safe to stop once Done holds at the epoch
	// that decommissioned it.
	Rebalance *RebalanceStatus `json:"rebalance,omitempty"`
}

// handleCluster serves GET /v1/cluster: ring parameters, per-peer health,
// and replica-repair status. On a non-clustered server it reports
// enabled=false.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var resp ClusterResponse
	if cl := s.cfg.Cluster; cl != nil {
		resp.Enabled = true
		resp.Self = cl.Self()
		resp.VNodes = cl.Ring().VNodes()
		resp.Replication = cl.Replication()
		resp.Peers = cl.Status()
		resp.Epoch = cl.Epoch()
		resp.Left = cl.Left()
		reb := s.RebalanceStatus()
		resp.Rebalance = &reb
	}
	if s.cfg.Upstream != nil {
		resp.Upstream = s.cfg.Upstream.BaseURL
	}
	writeJSON(w, http.StatusOK, resp)
}
