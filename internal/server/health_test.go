package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netcache"
	"netcache/internal/cluster"
	"netcache/internal/store"
)

// fakeRun answers every spec at once with a result derived from it, and
// counts the calls.
func fakeRun(n *atomic.Int32) func(context.Context, netcache.RunSpec) (netcache.Result, error) {
	return func(_ context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		n.Add(1)
		return netcache.Result{App: spec.App, Cycles: int64(spec.Scale * 1e6)}, nil
	}
}

// ownedSpecs returns n distinct specs whose key cl's ring gives to owner.
func ownedSpecs(t *testing.T, cl *cluster.Cluster, owner string, n int) []netcache.RunSpec {
	t.Helper()
	var specs []netcache.RunSpec
	for i := 0; len(specs) < n; i++ {
		spec := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05 + 0.001*float64(i)}
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		if cl.Owner(key) == owner {
			specs = append(specs, spec)
		}
	}
	return specs
}

// TestClusterFailingOwnerStaysUp: an owner that answers every /v1/run with
// 500 while its /healthz is fine stays up on the entry node. Each proxied
// request spends the default peer client's 3 attempts on it and is then
// recomputed locally; no reply marks the owner down, so no probe has to
// revive it, and a probe keeps it up.
func TestClusterFailingOwnerStaysUp(t *testing.T) {
	const entry, owner = 0, 1
	var entrySims atomic.Int32
	nodes := startCluster(t, 2, 1, func(i int, cfg *Config) {
		manualLoops(i, cfg)
		cfg.Internode = nil // the default inter-node client
		if i == owner {
			cfg.RunFunc = func(context.Context, netcache.RunSpec) (netcache.Result, error) {
				return netcache.Result{}, errors.New("owner always fails")
			}
		} else {
			cfg.RunFunc = fakeRun(&entrySims)
		}
	})
	e, o := nodes[entry], nodes[owner]
	// Stop the entry's background probe: the proxied requests and one
	// ProbeNow below are then its only health signals about the owner.
	e.cl.Close()
	var ups atomic.Int32
	e.cl.OnPeerUp(func(string) { ups.Add(1) })

	ctx := context.Background()
	for i, spec := range ownedSpecs(t, e.cl, o.url, 8) {
		res, err := e.c.Run(ctx, spec)
		if err != nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
		if want := int64(spec.Scale * 1e6); res.Cycles != want {
			t.Fatalf("request %d: cycles %d, want the local recompute's %d", i+1, res.Cycles, want)
		}
		if !e.cl.Up(o.url) {
			t.Fatalf("owner marked down after request %d; it answered every attempt", i+1)
		}
	}
	if n := entrySims.Load(); n != 8 {
		t.Fatalf("entry simulated %d specs, want 8 local recomputes", n)
	}
	e.cl.ProbeNow(ctx)
	if !e.cl.Up(o.url) {
		t.Fatal("ProbeNow marked the owner down; its /healthz answers 200")
	}
	if n := ups.Load(); n != 0 {
		t.Fatalf("OnPeerUp fired %d times; the owner never went down", n)
	}
	text, err := e.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "netcached_cluster_fallback_recomputes_total"); v != 8 {
		t.Fatalf("fallback recomputes = %d, want 8", v)
	}
}

// TestClusterProbeStatuses: the probe is stricter than the request path.
// Through the default peer client, a peer whose /healthz answers 503
// (draining) is marked down by ProbeNow, and one answering 200 "degraded"
// stays up, as it still serves. A probe is one request whatever the
// client's retry policy: the probe loop is the retry schedule.
func TestClusterProbeStatuses(t *testing.T) {
	healthz := func(h http.HandlerFunc) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" {
				http.NotFound(w, r)
				return
			}
			h(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	// The replies handleHealth gives while draining and while degraded.
	var drainingProbes atomic.Int32
	draining := healthz(func(w http.ResponseWriter, r *http.Request) {
		drainingProbes.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining")
	})
	degraded := healthz(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("degraded\n"))
	})
	const self = "http://127.0.0.1:1" // never dialled: only remotes are probed
	cl, err := cluster.New(cluster.Config{Self: self, Peers: []string{self, draining, degraded}})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Cluster: cl})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })

	cl.ProbeNow(context.Background())
	if cl.Up(draining) {
		t.Fatal("a peer whose /healthz answers 503 is still up after ProbeNow")
	}
	if !cl.Up(degraded) {
		t.Fatal("a peer whose /healthz answers 200 degraded was marked down")
	}
	if n := drainingProbes.Load(); n != 1 {
		t.Fatalf("one ProbeNow sent the draining peer %d /healthz requests, want 1", n)
	}
}

// TestUpstreamDownUntilProbe: a dead upstream costs one failed lookup, and
// then none until a probe finds it back. The upstream client makes 2
// attempts, so 5 misses against a closed port make 2 lookup attempts, all
// on the first miss, and netcached_upstream_up reads 0. Once the upstream
// is back on the same address, one ProbeNow revives it and the next miss
// is looked up and hit.
func TestUpstreamDownUntilProbe(t *testing.T) {
	ctx := context.Background()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var lookups atomic.Int32
	up := &Client{
		BaseURL: "http://" + addr,
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		HTTPClient: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			if strings.HasPrefix(r.URL.Path, "/v1/result/") {
				lookups.Add(1)
			}
			return http.DefaultTransport.RoundTrip(r)
		})},
	}
	var sims atomic.Int32
	srv, c := start(t, Config{Workers: 1, RunFunc: fakeRun(&sims), Upstream: up})
	spec := func(i int) netcache.RunSpec {
		return netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05 + 0.01*float64(i)}
	}
	upMetric := func() int64 {
		t.Helper()
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return metricValue(t, text, "netcached_upstream_up")
	}

	for i := 0; i < 5; i++ {
		if _, err := c.RunRaw(ctx, spec(i)); err != nil {
			t.Fatalf("miss %d: %v", i, err)
		}
	}
	if n := lookups.Load(); n != 2 {
		t.Fatalf("5 misses made %d lookup attempts against a dead upstream, want 2 (one failed lookup)", n)
	}
	if n := sims.Load(); n != 5 {
		t.Fatalf("%d simulations, want 5", n)
	}
	if v := upMetric(); v != 0 {
		t.Fatalf("netcached_upstream_up = %d with the upstream dead, want 0", v)
	}

	// The upstream comes back on the same address, holding the next spec.
	upStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer upStore.Close()
	key, err := spec(5).Key()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(netcache.Result{App: "sor", Cycles: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := upStore.Put(key, want); err != nil {
		t.Fatal(err)
	}
	l, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	upSrv := New(Config{Store: upStore, Workers: 1})
	served := make(chan error, 1)
	go func() { served <- upSrv.Serve(l) }()
	defer func() {
		if err := upSrv.Shutdown(ctx); err != nil {
			t.Errorf("upstream shutdown: %v", err)
		}
		<-served
	}()

	srv.upstreamHealth.ProbeNow(ctx)
	if v := upMetric(); v != 1 {
		t.Fatalf("netcached_upstream_up = %d after a successful probe, want 1", v)
	}
	got, err := c.RunRaw(ctx, spec(5))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || sims.Load() != 5 {
		t.Fatalf("reply %s after %d simulations, want the upstream's %s and none new", got, sims.Load(), want)
	}
	if n := lookups.Load(); n != 3 {
		t.Fatalf("%d lookup attempts in all, want 3: the revived upstream is looked up once", n)
	}
}

// TestUpstreamHitNotCountedAsFallback: on a 2-node RF 1 ring whose owner
// is stopped, the entry node's miss is answered by its upstream. Nothing
// is simulated, so netcached_cluster_fallback_recomputes_total ("misses
// recomputed locally") stays 0.
func TestUpstreamHitNotCountedAsFallback(t *testing.T) {
	ctx := context.Background()
	upStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer upStore.Close()
	var upSims atomic.Int32
	_, upClient := start(t, Config{Workers: 1, RunFunc: fakeRun(&upSims), Store: upStore})
	nodes := startCluster(t, 2, 1, func(i int, cfg *Config) {
		manualLoops(i, cfg)
		if i == 0 {
			cfg.Upstream = NewClient(upClient.BaseURL)
		}
	})
	entry, owner := nodes[0], nodes[1]
	spec := ownedSpecs(t, entry.cl, owner.url, 1)[0]
	want, err := upClient.RunRaw(ctx, spec) // the upstream simulates and stores it
	if err != nil {
		t.Fatal(err)
	}
	owner.stop(t)

	got, err := entry.c.RunRaw(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || entry.sims.Load() != 0 {
		t.Fatalf("reply %s after %d simulations, want the upstream's %s and none", got, entry.sims.Load(), want)
	}
	text, err := entry.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "netcached_upstream_hits_total"); v != 1 {
		t.Fatalf("upstream hits = %d, want 1", v)
	}
	if v := metricValue(t, text, "netcached_cluster_fallback_recomputes_total"); v != 0 {
		t.Fatalf("fallback recomputes = %d after an upstream hit and no simulation, want 0", v)
	}
}
