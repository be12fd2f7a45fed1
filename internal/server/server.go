// Package server exposes the netcache simulator as an HTTP/JSON service
// with a content-addressed result store in front of the worker pool.
//
// Every simulation is bit-deterministic, so a Result is a pure function of
// its canonical RunSpec (netcache.RunSpec.Key). The serving pipeline
// exploits that in three layers:
//
//  1. store:       identical specs across process lifetimes are answered
//     from disk (internal/store), byte-identically;
//  2. coalescing:  concurrent identical specs singleflight into exactly one
//     simulation, every waiter sharing its outcome;
//  3. admission:   genuinely novel specs pass a bounded admission queue
//     (429 + Retry-After when saturated) and wait for a worker
//     before burning CPU.
//
// Coalescing, admission, timeouts and panic recovery are one runner.Pool.
// Shutdown is graceful: new simulations are refused, in-flight ones drain
// until the deadline, and past it the pool's context is cancelled, which
// aborts the simulation engines through their Interrupt path.
//
// With a cluster configured (internal/cluster), N servers form one logical
// store: a non-owner first checks its local store, then proxies the miss to
// the key's owner over the resilient inter-node client, and — when every
// replica is unreachable — recomputes deterministically. One background
// rebalance pass keeps every stored key on its replicas: it pushes keys
// this node holds but does not replicate (fallback recomputes, read-through
// fills, keys a membership change moved away) to their replicas, and keys
// it shares with a peer whenever their range digests differ. An optional
// upstream tier is consulted read-through before simulating, so a local
// cluster can chain behind a regional one.
//
// Endpoints: POST /v1/run, POST /v1/batch, GET /v1/apps, GET /v1/stats
// (per-tier store occupancy and maintenance counters as JSON), GET
// /v1/result/{key} (store-only lookup), POST /v1/results/missing and POST
// /v1/results (replica presence check and multi-key push), GET /v1/cluster
// (ring + peer health + replica-repair status), GET /v1/cluster/membership,
// GET /v1/cluster/digest (per-range replica digests), GET /healthz, GET
// /metrics (Prometheus text format).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"netcache"
	"netcache/internal/cluster"
	"netcache/internal/faults"
	"netcache/internal/loop"
	"netcache/internal/runner"
	"netcache/internal/store"
)

// Config wires a Server.
type Config struct {
	// Store, when non-nil, persists results content-addressed by spec key.
	Store *store.Store

	// Workers bounds concurrently executing simulations (<= 0: GOMAXPROCS).
	Workers int

	// QueueDepth bounds simulations admitted but waiting for a worker;
	// beyond it requests are refused with 429 (<= 0: 64).
	QueueDepth int

	// Timeout caps each simulation's wall clock (0: none).
	Timeout time.Duration

	// RunFunc executes one simulation. Nil means netcache.RunContext; tests
	// substitute instrumented runners.
	RunFunc func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error)

	// Log receives request errors. Nil discards.
	Log *log.Logger

	// Inject, when non-nil, arms deterministic chaos: HTTP-layer faults
	// (faults.HTTPLatency / HTTPError / HTTPDisconnect) fire on /v1/*
	// requests, and the runner pool fires its runner.* sites. The
	// health and metrics endpoints are exempt so chaos runs stay
	// observable.
	Inject *faults.Injector

	// DegradedAfter is how many consecutive store Put failures flip the
	// server into degraded (read-only) mode, where results are recomputed
	// but not persisted and /healthz reports "degraded" (<= 0: 3).
	DegradedAfter int

	// DegradedProbe is how often a degraded server re-attempts a store
	// write to detect recovery (<= 0: 5s).
	DegradedProbe time.Duration

	// Cluster, when non-nil, makes this server one node of a
	// consistent-hash cluster: misses on keys owned elsewhere are proxied
	// to the owner, owner outages fall back to local recomputation, and
	// the rebalance pass pushes stored keys to the replicas that lack
	// them. The server owns the cluster's probe and rebalance lifecycles:
	// New starts them, Shutdown stops them.
	Cluster *cluster.Cluster

	// Internode returns the client used to reach a peer; nil uses a
	// default client (3 attempts, see peerClient). Either is tagged with
	// the internode header so proxied requests cannot loop.
	Internode func(peer string) *Client

	// Upstream, when non-nil, is the read-through upstream tier: before
	// simulating a miss, GET /v1/result/{key} is tried against it and a
	// hit is persisted locally — the ncps pattern of local storage chained
	// behind an upstream cache. The server probes its /healthz every 2 s
	// and skips it while it is down.
	Upstream *Client

	// RebalanceInterval is the rebalance pass's timer period (<= 0: 30s).
	// Membership adoptions and peers coming back up additionally wake the
	// pass at once; the timer is the retry schedule for deliveries a pass
	// left owed. Runs only with both Cluster and Store set.
	RebalanceInterval time.Duration

	// RebalanceRate caps how many keys per second the rebalance pass
	// pushes to peers (<= 0: unlimited), so repair cannot starve serving
	// traffic of disk and network bandwidth.
	RebalanceRate int
}

// Server is the netcached HTTP service.
type Server struct {
	cfg  Config
	m    *metrics
	http http.Server

	// runs executes every simulation under its own context, not the
	// triggering request's, so a client disconnect cannot kill work that
	// coalesced followers or the store will reuse. base bounds the
	// background membership pulls; Shutdown cancels it.
	runs  *runner.Pool[outcome]
	base  context.Context
	abort context.CancelFunc

	// specs remembers the spec and key each recent /v1/run body parsed to.
	specs specTable

	// Degraded (read-only) mode state, under mu: putFails counts
	// consecutive store Put failures; degraded flips once it reaches
	// DegradedAfter, after which at most one probe Put per DegradedProbe
	// interval is attempted until one succeeds.
	mu        sync.Mutex
	putFails  int
	degraded  bool
	lastProbe time.Time

	// Cluster plumbing: lazily built per-peer clients, in-flight gossip
	// pulls, and the rebalance loop and its status.
	peerMu      sync.Mutex
	peerClients map[string]*Client
	syncing     map[string]bool // peers with a membership pull in flight
	rebalancer  *loop.Loop      // nil without both Cluster and Store
	passMu      sync.Mutex      // one rebalance pass at a time
	rebalMu     sync.Mutex
	rebal       RebalanceStatus

	// upstreamHealth tracks Upstream's BaseURL; nil without Upstream.
	upstreamHealth *cluster.Health

	// unused holds the connections that have not sent a request yet,
	// under connMu; Shutdown closes them and sets it to nil.
	connMu sync.Mutex
	unused map[net.Conn]struct{}
}

// outcome is a finished request: either body (HTTP 200) or errMsg+code.
type outcome struct {
	body   []byte
	code   int
	errMsg string
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RunFunc == nil {
		cfg.RunFunc = netcache.RunContext
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	if cfg.DegradedAfter <= 0 {
		cfg.DegradedAfter = 3
	}
	if cfg.DegradedProbe <= 0 {
		cfg.DegradedProbe = 5 * time.Second
	}
	base, abort := context.WithCancel(context.Background())
	s := &Server{
		cfg:   cfg,
		m:     newMetrics(),
		runs:  runner.New[outcome](base, runner.Options{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth, Timeout: cfg.Timeout, Inject: cfg.Inject}),
		base:  base,
		abort: abort,
	}
	s.unused = make(map[net.Conn]struct{})
	s.http.ConnState = s.trackConn
	mux := http.NewServeMux()
	s.route(mux, "/v1/run", s.chaos(s.handleRun))
	s.route(mux, "/v1/batch", s.chaos(s.handleBatch))
	s.route(mux, "/v1/apps", s.chaos(s.handleApps))
	s.route(mux, "/v1/result/", s.chaos(s.handleResult))
	s.route(mux, "/v1/results", s.chaos(s.handlePush))
	s.route(mux, "/v1/results/missing", s.chaos(s.handleMissing))
	// Like /healthz and /metrics, /v1/stats and the cluster control-plane
	// endpoints are exempt from chaos injection so fault storms stay
	// observable and operators can reshape the ring mid-storm.
	s.route(mux, "/v1/stats", s.handleStats)
	s.route(mux, "/v1/cluster", s.handleCluster)
	s.route(mux, "/v1/cluster/membership", s.handleMembership)
	s.route(mux, "/v1/cluster/digest", s.handleDigest)
	s.route(mux, "/healthz", s.handleHealth)
	s.route(mux, "/metrics", s.handleMetrics)
	// Every response from a clustered node carries its membership epoch,
	// and inter-node requests are watched for newer epochs (gossip).
	s.http.Handler = s.epochWrap(mux)
	if cfg.Cluster != nil {
		s.peerClients = make(map[string]*Client)
		cfg.Cluster.SetProbe(func(ctx context.Context, peer string) error {
			_, err := s.peerClient(peer).Health(ctx)
			return err
		})
		cfg.Cluster.StartProbes()
		if cfg.Store != nil {
			s.startRebalance()
		}
	}
	if up := cfg.Upstream; up != nil {
		// Probed every 2 s, the -probe-interval default.
		s.upstreamHealth = cluster.NewHealth("upstream", 2*time.Second, cfg.Log)
		s.upstreamHealth.Track(up.BaseURL)
		s.upstreamHealth.SetProbe(func(ctx context.Context, _ string) error {
			_, err := up.Health(ctx)
			return err
		})
		s.upstreamHealth.Start()
	}
	return s
}

// route registers h at pattern and counts every response it writes in
// netcached_requests_total under the pattern, so a key in the URL never
// becomes a label value. A handler that panics (an injected disconnect) is
// not counted.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	path := strings.TrimSuffix(pattern, "/")
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.m.request(path, sw.code)
	})
}

// statusWriter records the status code a handler answers with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// maxChaosLatency bounds the injected per-request delay at the
// faults.HTTPLatency site.
const maxChaosLatency = 100 * time.Millisecond

// chaos wraps an API handler with the HTTP-layer fault sites. With no
// injector configured it is the identity.
func (s *Server) chaos(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.Inject == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if fired, aux := s.cfg.Inject.Draw(faults.HTTPLatency); fired {
			time.Sleep(time.Duration(aux % uint64(maxChaosLatency)))
		}
		if s.cfg.Inject.Fire(faults.HTTPDisconnect) {
			// ErrAbortHandler makes net/http drop the connection without a
			// response — the wire-level failure a flaky hop produces.
			panic(http.ErrAbortHandler)
		}
		if s.cfg.Inject.Fire(faults.HTTPError) {
			writeError(w, http.StatusInternalServerError, "chaos: injected server error")
			return
		}
		h(w, r)
	}
}

// Handler returns the HTTP handler, for in-process tests.
func (s *Server) Handler() http.Handler { return s.http.Handler }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: the probe and rebalance loops stop at once,
// cancelling a pass in flight, then the pool closes: no simulation starts,
// in-flight ones run to completion until ctx's deadline, and past it the
// engines are aborted through the Interrupt path. It returns once every
// simulation has joined and the listeners are closed.
func (s *Server) Shutdown(ctx context.Context) error {
	// Stop the cluster loops first: no background traffic while draining.
	// A rebalance pass cut here is walked again, whole, after the next boot.
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Close()
	}
	if s.upstreamHealth != nil {
		s.upstreamHealth.Close()
	}
	s.rebalancer.Stop()
	s.runs.Close(ctx)
	s.abort()

	// Simulations are done; handlers only have bytes left to write.
	// net/http counts a connection that never sent a request as active
	// until it is 5 s old, so those are closed here instead.
	s.closeUnused()
	hctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.http.Shutdown(hctx)
}

// trackConn is the http.Server's ConnState hook: it keeps the set of
// connections that have not sent a request yet, and once Shutdown has
// closed that set it closes each new connection as it arrives.
func (s *Server) trackConn(c net.Conn, state http.ConnState) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	switch {
	case state != http.StateNew:
		delete(s.unused, c)
	case s.unused == nil:
		c.Close()
	default:
		s.unused[c] = struct{}{}
	}
}

// closeUnused closes every connection that has not sent a request yet.
func (s *Server) closeUnused() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.unused {
		c.Close()
	}
	s.unused = nil
}

// --- request plumbing -------------------------------------------------------

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func (s *Server) writeOutcome(w http.ResponseWriter, out outcome) {
	if out.code != http.StatusOK {
		if out.code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		}
		writeError(w, out.code, out.errMsg)
		return
	}
	writeSized(w, http.StatusOK, out.body)
}

// writeSized answers code with a JSON body and declares its length.
// net/http sends a body past its 2 KiB buffer chunked otherwise, and the
// reader then has no size to read it into one buffer.
func writeSized(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// writeJSON answers code with v encoded as json.Encoder writes it, newline
// included, through writeSized.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: "encoding reply: " + err.Error()})
	}
	writeSized(w, code, append(body, '\n'))
}

// retryAfterSeconds estimates when a queue slot frees up: the observed mean
// simulation latency times the admitted simulations per worker.
func (s *Server) retryAfterSeconds() int {
	s.m.mu.Lock()
	var n, sum uint64
	for _, h := range s.m.simDur {
		n += h.N
		sum += h.Sum
	}
	s.m.mu.Unlock()
	meanSec := 1.0
	if n > 0 {
		meanSec = float64(sum) / float64(n) / 1e6
	}
	waiting := float64(s.runs.Running.Load()+s.runs.Waiting.Load()) / float64(s.cfg.Workers)
	sec := int(meanSec * (waiting + 1))
	if sec < 1 {
		sec = 1
	}
	return sec
}

// --- handlers ---------------------------------------------------------------

// maxRunBytes caps a POST /v1/run body.
const maxRunBytes = 1 << 20

// handleRun serves POST /v1/run. A body parsed before is served with the
// spec and key the table remembers; any other is decoded as the first JSON
// value in it, validated and keyed, and remembered if that succeeds.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a RunSpec")
		return
	}
	body, ok := readRequest(w, r, maxRunBytes)
	if !ok {
		return
	}
	p, ok := s.specs.get(body)
	if !ok {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&p.spec); err != nil {
			writeError(w, http.StatusBadRequest, "bad spec: "+err.Error())
			return
		}
		var refused outcome
		if p.key, refused = keySpec(p.spec); p.key == "" {
			s.writeOutcome(w, refused)
			return
		}
		s.specs.put(body, p)
	}
	s.writeOutcome(w, s.run(r.Context(), p.key, p.spec, isInternode(r)))
}

// maxBatchBytes caps a POST /v1/batch body.
const maxBatchBytes = 16 << 20

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Specs []netcache.RunSpec `json:"specs"`
}

// BatchEntry is one per-spec outcome in a BatchResponse, in spec order.
type BatchEntry struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Status int             `json:"status"`
}

// BatchResponse is the POST /v1/batch reply.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a spec list")
		return
	}
	body, ok := readRequest(w, r, maxBatchBytes)
	if !ok {
		return
	}
	var req BatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch: "+err.Error())
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// Each member takes the full store -> coalesce -> admit path, at most
	// Workers at once so a batch cannot overrun the admission queue alone;
	// identical members (and concurrent /v1/run requests) simulate once.
	internode := isInternode(r)
	resp := BatchResponse{Results: make([]BatchEntry, len(req.Specs))}
	runner.Each(len(req.Specs), s.cfg.Workers, func(i int) {
		o := s.execute(r.Context(), req.Specs[i], internode)
		e := BatchEntry{Status: o.code}
		if o.code == http.StatusOK {
			e.Result = json.RawMessage(o.body)
		} else {
			e.Error = o.errMsg
		}
		resp.Results[i] = e
	})
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding batch: "+err.Error())
		return
	}
	writeSized(w, http.StatusOK, append(body, '\n'))
}

// AppInfo describes one Table 4 application on GET /v1/apps.
type AppInfo struct {
	Name  string `json:"name"`
	Desc  string `json:"desc"`
	Input string `json:"input"`
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	names := netcache.Apps()
	infos := make([]AppInfo, 0, len(names))
	for _, name := range names {
		desc, input := netcache.DescribeApp(name)
		infos = append(infos, AppInfo{Name: name, Desc: desc, Input: input})
	}
	writeJSON(w, http.StatusOK, infos)
}

// StatsResponse is the GET /v1/stats body: the storage engine's per-tier
// occupancy and maintenance counters, plus the server's serving state. With
// no store configured, HasStore is false and Store is all zeros.
type StatsResponse struct {
	Degraded bool        `json:"degraded"`
	HasStore bool        `json:"has_store"`
	Store    store.Stats `json:"store"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := StatsResponse{Degraded: s.Degraded()}
	if s.cfg.Store != nil {
		resp.HasStore = true
		resp.Store = s.cfg.Store.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth reports the serving state: 200 "ok" (fully healthy), 200
// "degraded" (serving, but the store is rejecting writes — results are
// recomputed, not persisted), or 503 while draining.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.runs.Closed() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.Degraded() {
		w.Write([]byte("degraded\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	degraded := s.degraded
	s.mu.Unlock()
	var b strings.Builder
	s.m.render(&b, s, degraded)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}

// Degraded reports whether the server is in read-only degraded mode.
func (s *Server) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// --- degraded (read-only) mode ----------------------------------------------

// allowPut decides whether this simulation's result should be persisted.
// Healthy servers always persist; degraded ones probe the store at most
// once per DegradedProbe interval so recovery is detected without hammering
// a failing disk.
func (s *Server) allowPut() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.degraded {
		return true
	}
	if time.Since(s.lastProbe) < s.cfg.DegradedProbe {
		return false
	}
	s.lastProbe = time.Now()
	return true
}

// putFailed records a store write failure and flips into degraded mode
// after DegradedAfter consecutive ones.
func (s *Server) putFailed(key string, err error) {
	s.m.add(&s.m.storePutFails)
	s.cfg.Log.Printf("store put %s: %v", key, err)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putFails++
	if !s.degraded && s.putFails >= s.cfg.DegradedAfter {
		s.degraded = true
		s.lastProbe = time.Now()
		s.cfg.Log.Printf("entering degraded (read-only) mode after %d consecutive store write failures", s.putFails)
	}
}

// putSucceeded records a store write success, leaving degraded mode if set.
func (s *Server) putSucceeded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putFails = 0
	if s.degraded {
		s.degraded = false
		s.cfg.Log.Printf("store writes recovered; leaving degraded mode")
	}
}

// --- the keyed execution path ----------------------------------------------

// execute validates and keys spec, then serves it through run.
func (s *Server) execute(ctx context.Context, spec netcache.RunSpec, internode bool) outcome {
	key, refused := keySpec(spec)
	if key == "" {
		return refused
	}
	return s.run(ctx, key, spec, internode)
}

// keySpec returns spec's key, or an empty key and the outcome that refuses
// the spec: 400 if it cannot run, 500 if it cannot be keyed.
func keySpec(spec netcache.RunSpec) (string, outcome) {
	if err := spec.Validate(); err != nil {
		return "", outcome{code: http.StatusBadRequest, errMsg: err.Error()}
	}
	key, err := spec.Key()
	if err != nil {
		return "", outcome{code: http.StatusInternalServerError, errMsg: "keying spec: " + err.Error()}
	}
	return key, outcome{}
}

// run serves a validated spec under its key through the pool's
// singleflight: one call per key runs lead, and concurrent identical
// requests share its outcome. ctx is the *waiter's* context: it bounds how
// long this request waits, while the simulation itself runs under the
// pool's context. internode marks requests proxied from a peer: they are
// served authoritatively, never re-proxied, so disagreeing ring views can
// cost an extra hop but never a loop.
func (s *Server) run(ctx context.Context, key string, spec netcache.RunSpec, internode bool) outcome {
	out, err := s.runs.Do(ctx, key, func(ctx context.Context) (outcome, error) {
		return s.lead(ctx, key, spec, internode)
	})
	switch {
	case err == nil:
		return out
	case errors.Is(err, runner.ErrBusy):
		s.m.add(&s.m.rejected)
		return outcome{code: http.StatusTooManyRequests, errMsg: "admission queue full"}
	case errors.Is(err, runner.ErrClosed):
		return outcome{code: http.StatusServiceUnavailable, errMsg: "server shutting down"}
	case ctx.Err() != nil:
		return outcome{code: http.StatusServiceUnavailable, errMsg: "request cancelled: " + ctx.Err().Error()}
	default: // a panic, recovered by the pool: retryable, and never cached
		s.cfg.Log.Printf("run %s/%s: %v", spec.App, spec.System, err)
		return outcome{code: http.StatusInternalServerError, errMsg: err.Error()}
	}
}

// lead serves a key no other request is serving: store lookup, then cluster
// routing (proxy the miss to the owner, or fall back to local
// recomputation), then the upstream tier, then the simulation on a pool
// worker. Its error is the pool's refusal, or ctx's if ctx ends first, in
// which case a waiter whose own request is still live runs lead instead.
func (s *Server) lead(ctx context.Context, key string, spec netcache.RunSpec, internode bool) (outcome, error) {
	if s.cfg.Store != nil {
		if body, ok := s.cfg.Store.Get(key); ok {
			s.m.add(&s.m.storeServed)
			return outcome{code: http.StatusOK, body: body}, nil
		}
	}

	cl := s.cfg.Cluster
	owned := cl == nil || cl.IsReplica(key)
	fallback := false
	if !owned && !internode {
		if out, ok := s.proxy(ctx, key, spec); ok {
			return out, nil
		}
		if err := ctx.Err(); err != nil {
			return outcome{}, err
		}
		// Every replica is unreachable. Results are deterministic
		// recomputations, so a down owner costs latency, not correctness:
		// compute locally (unless the upstream has it). Once stored here
		// the key is owed to its replicas, and the rebalance pass delivers
		// it when they are up.
		fallback = true
	}

	if s.cfg.Upstream != nil {
		if body, ok := s.upstreamFetch(ctx, key); ok {
			s.storeFill(key, body)
			return outcome{code: http.StatusOK, body: body}, nil
		}
	}

	out, err := s.runs.Work(ctx, func(ctx context.Context) (outcome, error) {
		if fallback {
			s.m.add(&s.m.clusterFallbacks)
		}
		start := time.Now()
		res, err := s.cfg.RunFunc(ctx, spec)
		s.m.simDone(spec.App, time.Since(start).Microseconds())
		if err != nil {
			s.cfg.Log.Printf("run %s/%s: %v", spec.App, spec.System, err)
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				return outcome{code: http.StatusGatewayTimeout, errMsg: err.Error()}, nil
			case errors.Is(err, context.Canceled):
				return outcome{code: http.StatusServiceUnavailable, errMsg: "aborted: " + err.Error()}, nil
			default:
				return outcome{code: http.StatusInternalServerError, errMsg: err.Error()}, nil
			}
		}
		body, err := json.Marshal(res)
		if err != nil {
			return outcome{code: http.StatusInternalServerError, errMsg: "encoding result: " + err.Error()}, nil
		}
		return outcome{code: http.StatusOK, body: body}, nil
	})
	if err == nil && out.code == http.StatusOK {
		s.storeFill(key, out.body)
	}
	return out, err
}
