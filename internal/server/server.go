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
//     simulation, every waiter sharing the leader's outcome;
//  3. admission:   genuinely novel specs pass a bounded admission queue
//     (429 + Retry-After when saturated) and a worker
//     semaphore before burning CPU.
//
// Shutdown is graceful: new simulations are refused, in-flight ones drain
// until the deadline, and past it the server's base context is cancelled,
// which aborts the simulation engines through their Interrupt path.
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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"netcache"
	"netcache/internal/cluster"
	"netcache/internal/faults"
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
	// requests, and the batch worker pool fires its runner.* sites. The
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
	// default resilient client (3 attempts, breaker) tagged with the
	// internode header so proxied requests cannot loop.
	Internode func(peer string) *Client

	// Upstream, when non-nil, is the read-through upstream tier: before
	// simulating a miss, GET /v1/result/{key} is tried against it and a
	// hit is persisted locally — the ncps pattern of local storage chained
	// behind an upstream cache.
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

	// base is the simulation lifetime context: simulations run under it
	// (not under the triggering request) so a leader's client disconnect
	// cannot kill work that coalesced followers or the store will reuse.
	// Shutdown cancels it after the drain deadline, aborting the engines
	// through the sim Interrupt path.
	base  context.Context
	abort context.CancelFunc

	sem   chan struct{} // worker tokens
	queue chan struct{} // admission slots (workers + queue depth)

	mu      sync.Mutex
	calls   map[string]*call
	closing bool
	sims    sync.WaitGroup

	// Degraded (read-only) mode state, under mu: putFails counts
	// consecutive store Put failures; degraded flips once it reaches
	// DegradedAfter, after which at most one probe Put per DegradedProbe
	// interval is attempted until one succeeds.
	putFails  int
	degraded  bool
	lastProbe time.Time

	// Cluster plumbing: lazily built per-peer clients, in-flight gossip
	// pulls, and the rebalance loop's lifecycle and status.
	peerMu      sync.Mutex
	peerClients map[string]*Client
	syncing     map[string]bool // peers with a membership pull in flight
	rebalStop   chan struct{}
	rebalDone   chan struct{}
	rebalWake   chan struct{}
	rebalOnce   sync.Once
	passMu      sync.Mutex // one rebalance pass at a time
	rebalMu     sync.Mutex
	rebal       RebalanceStatus
}

// call is one in-flight keyed computation; followers wait on done.
type call struct {
	done chan struct{}
	out  outcome
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
		base:  base,
		abort: abort,
		sem:   make(chan struct{}, cfg.Workers),
		queue: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		calls: make(map[string]*call),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.chaos(s.handleRun))
	mux.HandleFunc("/v1/batch", s.chaos(s.handleBatch))
	mux.HandleFunc("/v1/apps", s.chaos(s.handleApps))
	mux.HandleFunc("/v1/result/", s.chaos(s.handleResult))
	mux.HandleFunc("/v1/results", s.chaos(s.handlePush))
	mux.HandleFunc("/v1/results/missing", s.chaos(s.handleMissing))
	// Like /healthz and /metrics, /v1/stats and the cluster control-plane
	// endpoints are exempt from chaos injection so fault storms stay
	// observable and operators can reshape the ring mid-storm.
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/cluster", s.handleCluster)
	mux.HandleFunc("/v1/cluster/membership", s.handleMembership)
	mux.HandleFunc("/v1/cluster/digest", s.handleDigest)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
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
	return s
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
			s.writeError(w, r.URL.Path, http.StatusInternalServerError, "chaos: injected server error")
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

// Shutdown drains the server: new simulations are refused immediately,
// in-flight ones run to completion until ctx's deadline, and past it the
// engines are aborted through the Interrupt path. It returns once every
// simulation has joined and the listeners are closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()

	// Stop the cluster loops first: no new probes or rebalance passes
	// while draining.
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Close()
	}
	s.stopRebalance()

	drained := make(chan struct{})
	go func() {
		s.sims.Wait()
		close(drained)
	}()
	select {
	case <-drained: // clean drain
	case <-ctx.Done():
		s.abort() // deadline passed: interrupt the engines
		<-drained // engines abort in bounded time; join them
	}
	s.abort()

	// Simulations are done; handlers only have bytes left to write.
	hctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.http.Shutdown(hctx)
}

// --- request plumbing -------------------------------------------------------

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, path string, code int, msg string) {
	s.m.request(path, code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func (s *Server) writeOutcome(w http.ResponseWriter, path string, out outcome) {
	if out.code != http.StatusOK {
		if out.code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		}
		s.writeError(w, path, out.code, out.errMsg)
		return
	}
	s.m.request(path, http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.Write(out.body)
}

// retryAfterSeconds estimates when a queue slot frees up: the observed mean
// simulation latency times the queue occupancy per worker.
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
	waiting := float64(len(s.queue)) / float64(cap(s.sem))
	sec := int(meanSec * (waiting + 1))
	if sec < 1 {
		sec = 1
	}
	return sec
}

// --- handlers ---------------------------------------------------------------

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, "/v1/run", http.StatusMethodNotAllowed, "POST a RunSpec")
		return
	}
	var spec netcache.RunSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		s.writeError(w, "/v1/run", http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	s.writeOutcome(w, "/v1/run", s.execute(r.Context(), spec, isInternode(r)))
}

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
		s.writeError(w, "/v1/batch", http.StatusMethodNotAllowed, "POST a spec list")
		return
	}
	var req BatchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		s.writeError(w, "/v1/batch", http.StatusBadRequest, "bad batch: "+err.Error())
		return
	}
	if len(req.Specs) == 0 {
		s.writeError(w, "/v1/batch", http.StatusBadRequest, "empty batch")
		return
	}
	// Fan the members out on the same worker-pool machinery RunBatch uses;
	// each takes the full store -> coalesce -> admit path, so identical
	// members (and identical concurrent /v1/run requests) simulate once.
	internode := isInternode(r)
	jobs := make([]runner.Job[outcome], len(req.Specs))
	for i, spec := range req.Specs {
		jobs[i] = runner.Job[outcome]{Run: func(ctx context.Context) (outcome, error) {
			return s.execute(ctx, spec, internode), nil
		}}
	}
	outs := runner.Map(r.Context(), runner.Options[outcome]{Workers: s.cfg.Workers, Inject: s.cfg.Inject}, jobs)
	resp := BatchResponse{Results: make([]BatchEntry, len(outs))}
	for i, o := range outs {
		e := BatchEntry{Status: o.Value.code}
		if o.Err != nil { // runner-level failure (cancelled before start)
			e.Status = http.StatusServiceUnavailable
			e.Error = o.Err.Error()
		} else if o.Value.code == http.StatusOK {
			e.Result = json.RawMessage(o.Value.body)
		} else {
			e.Error = o.Value.errMsg
		}
		resp.Results[i] = e
	}
	s.m.request("/v1/batch", http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
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
	s.m.request("/v1/apps", http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(infos)
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
		s.writeError(w, "/v1/stats", http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := StatsResponse{Degraded: s.Degraded()}
	if s.cfg.Store != nil {
		resp.HasStore = true
		resp.Store = s.cfg.Store.Stats()
	}
	s.m.request("/v1/stats", http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleHealth reports the serving state: 200 "ok" (fully healthy), 200
// "degraded" (serving, but the store is rejecting writes — results are
// recomputed, not persisted), or 503 while draining.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closing, degraded := s.closing, s.degraded
	s.mu.Unlock()
	if closing {
		s.writeError(w, "/healthz", http.StatusServiceUnavailable, "draining")
		return
	}
	s.m.request("/healthz", http.StatusOK)
	if degraded {
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
	s.m.request("/metrics", http.StatusOK)
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

// execute serves one spec through store, coalescing, cluster routing, and
// admission. ctx is the *waiter's* context: it bounds how long this request
// waits, while the simulation itself runs under the server's base context.
// internode marks requests proxied from a peer: they are served
// authoritatively, never re-proxied, so disagreeing ring views can cost an
// extra hop but never a loop.
func (s *Server) execute(ctx context.Context, spec netcache.RunSpec, internode bool) outcome {
	if err := spec.Validate(); err != nil {
		return outcome{code: http.StatusBadRequest, errMsg: err.Error()}
	}
	key, err := spec.Key()
	if err != nil {
		return outcome{code: http.StatusInternalServerError, errMsg: "keying spec: " + err.Error()}
	}

	s.mu.Lock()
	if c, ok := s.calls[key]; ok {
		s.mu.Unlock()
		s.m.add(&s.m.coalesced)
		select {
		case <-c.done:
			return c.out
		case <-ctx.Done():
			return outcome{code: http.StatusServiceUnavailable, errMsg: "request cancelled: " + ctx.Err().Error()}
		}
	}
	c := &call{done: make(chan struct{})}
	s.calls[key] = c
	s.mu.Unlock()

	c.out = s.lead(ctx, key, spec, internode)
	s.mu.Lock()
	delete(s.calls, key)
	s.mu.Unlock()
	close(c.done)
	return c.out
}

// lead is the singleflight leader: store lookup, then cluster routing
// (proxy the miss to the owner, or fall back to local recomputation), then
// the upstream tier, then admission and the simulation itself.
func (s *Server) lead(ctx context.Context, key string, spec netcache.RunSpec, internode bool) outcome {
	if s.cfg.Store != nil {
		if body, ok := s.cfg.Store.Get(key); ok {
			s.m.add(&s.m.storeServed)
			return outcome{code: http.StatusOK, body: body}
		}
	}

	cl := s.cfg.Cluster
	owned := cl == nil || cl.IsReplica(key)
	if !owned && !internode {
		if out, ok := s.proxy(ctx, key, spec); ok {
			return out
		}
		// Every replica is unreachable. Results are deterministic
		// recomputations, so a down owner costs latency, not correctness:
		// compute locally. Once stored here the key is owed to its
		// replicas, and the rebalance pass delivers it when they are up.
		s.m.add(&s.m.clusterFallbacks)
	}

	if s.cfg.Upstream != nil {
		if body, ok := s.upstreamFetch(ctx, key); ok {
			s.storeFill(key, body)
			return outcome{code: http.StatusOK, body: body}
		}
	}

	// Admission: a bounded queue in front of the worker semaphore.
	select {
	case s.queue <- struct{}{}:
	default:
		s.m.add(&s.m.rejected)
		return outcome{code: http.StatusTooManyRequests, errMsg: "admission queue full"}
	}
	defer func() { <-s.queue }()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return outcome{code: http.StatusServiceUnavailable, errMsg: "request cancelled: " + ctx.Err().Error()}
	case <-s.base.Done():
		return outcome{code: http.StatusServiceUnavailable, errMsg: "server shutting down"}
	}
	defer func() { <-s.sem }()

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return outcome{code: http.StatusServiceUnavailable, errMsg: "server shutting down"}
	}
	s.sims.Add(1)
	s.mu.Unlock()
	defer s.sims.Done()

	runCtx := s.base
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, s.cfg.Timeout)
		defer cancel()
	}
	s.m.inflight.Add(1)
	start := time.Now()
	res, err := s.runSim(runCtx, spec)
	s.m.inflight.Add(-1)
	s.m.simDone(spec.App, time.Since(start).Microseconds())
	if err != nil {
		s.cfg.Log.Printf("run %s/%s: %v", spec.App, spec.System, err)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return outcome{code: http.StatusGatewayTimeout, errMsg: err.Error()}
		case errors.Is(err, context.Canceled):
			return outcome{code: http.StatusServiceUnavailable, errMsg: "aborted: " + err.Error()}
		default:
			return outcome{code: http.StatusInternalServerError, errMsg: err.Error()}
		}
	}
	body, err := json.Marshal(res)
	if err != nil {
		return outcome{code: http.StatusInternalServerError, errMsg: "encoding result: " + err.Error()}
	}
	if s.cfg.Store != nil {
		if s.allowPut() {
			if err := s.cfg.Store.Put(key, body); err != nil {
				s.putFailed(key, err)
			} else {
				s.putSucceeded()
			}
		}
	}
	return outcome{code: http.StatusOK, body: body}
}

// runSim invokes the simulation with panics contained: a panicking RunFunc
// (a simulator bug, or injected chaos) becomes a retryable 500 for one
// request instead of a torn-down connection — and, because the simulation
// runs once per key, a deterministic panic cannot wedge the server in a
// crash loop.
func (s *Server) runSim(ctx context.Context, spec netcache.RunSpec) (res netcache.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulation panicked: %v", r)
		}
	}()
	return s.cfg.RunFunc(ctx, spec)
}
