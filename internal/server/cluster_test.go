package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcache"
	"netcache/internal/cluster"
	"netcache/internal/faults"
	"netcache/internal/store"
)

// cnode is one in-process cluster member: a full server stack (store,
// cluster view, probe + rebalance loops) listening on a real loopback socket.
type cnode struct {
	url  string
	dir  string // store directory; survives restarts
	srv  *Server
	c    *Client
	st   *store.Store
	cl   *cluster.Cluster
	sims *atomic.Int32
	l    net.Listener

	stopOnce sync.Once
	served   chan error
}

// stop shuts the node down (idempotent), closing its store so the same
// directory can be reopened by a restart.
func (n *cnode) stop(t *testing.T) {
	t.Helper()
	n.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := n.srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown %s: %v", n.url, err)
		}
		if err := <-n.served; err != nil {
			t.Errorf("serve %s: %v", n.url, err)
		}
		n.st.Close()
	})
}

// bootClusterNode builds and starts member i of the peer set on l. The
// probe/rebalance intervals are test-fast, and the inter-node transport uses
// short retries so a dead peer costs milliseconds, not the default backoff.
// fsys (nil = the real filesystem) lets churn tests arm store-level chaos.
func bootClusterNode(t *testing.T, urls []string, i int, dir string, fsys store.FS, l net.Listener, rf int, mutate func(int, *Config)) *cnode {
	t.Helper()
	st, err := store.OpenOptions(dir, store.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Self:          urls[i],
		Peers:         urls,
		Replication:   rf,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sims := &atomic.Int32{}
	cfg := Config{
		Store:             st,
		Workers:           2,
		RunFunc:           countingRun(sims),
		Cluster:           cl,
		RebalanceInterval: 25 * time.Millisecond,
		Internode: func(peer string) *Client {
			return &Client{
				BaseURL: peer,
				Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: uint64(i + 1)},
			}
		},
	}
	if mutate != nil {
		mutate(i, &cfg)
	}
	n := &cnode{
		url:    urls[i],
		dir:    dir,
		st:     st,
		cl:     cl,
		sims:   sims,
		l:      l,
		served: make(chan error, 1),
	}
	n.srv = New(cfg)
	go func() { n.served <- n.srv.Serve(l) }()
	n.c = NewClient(urls[i])
	n.c.HTTPClient = &http.Client{}
	t.Cleanup(n.c.HTTPClient.CloseIdleConnections)
	t.Cleanup(func() { n.stop(t) })
	return n
}

// startCluster boots an n-node cluster: listeners are bound first so every
// member knows the full peer set before any server starts.
func startCluster(t *testing.T, n, rf int, mutate func(int, *Config)) []*cnode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*cnode, n)
	for i := range nodes {
		nodes[i] = bootClusterNode(t, urls, i, t.TempDir(), nil, listeners[i], rf, mutate)
	}
	return nodes
}

// restartNode rebinds a stopped member's address and boots a fresh server
// over the member's surviving store directory — the "peer returns" half of
// a partition.
func restartNode(t *testing.T, nodes []*cnode, i, rf int, mutate func(int, *Config)) *cnode {
	t.Helper()
	urls := make([]string, len(nodes))
	for j, n := range nodes {
		urls[j] = n.url
	}
	addr := strings.TrimPrefix(nodes[i].url, "http://")
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	return bootClusterNode(t, urls, i, nodes[i].dir, nil, l, rf, mutate)
}

// fullSweep returns the 12-app x 4-system figure corpus at test scale.
func fullSweep() []netcache.RunSpec {
	var specs []netcache.RunSpec
	for _, app := range netcache.Apps() {
		for _, sys := range netcache.Systems {
			specs = append(specs, netcache.RunSpec{App: app, System: sys, Scale: 0.05})
		}
	}
	return specs
}

// sweepBaseline computes the fault-free single-node bytes for specs — what
// every cluster configuration must reproduce exactly.
func sweepBaseline(t *testing.T, specs []netcache.RunSpec) ([][]byte, []string) {
	t.Helper()
	baseline := make([][]byte, len(specs))
	keys := make([]string, len(specs))
	for i, br := range netcache.RunBatch(context.Background(), netcache.BatchOptions{}, specs) {
		if br.Err != nil {
			t.Fatalf("baseline %s/%s: %v", br.Spec.App, br.Spec.System, br.Err)
		}
		b, err := json.Marshal(br.Result)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = b
		key, err := specs[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
	}
	return baseline, keys
}

// metricSum adds up every sample of a labelled metric family.
func metricSum(text, name string) int64 {
	var sum int64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+"{") {
			if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
				var v int64
				fmt.Sscanf(line[sp+1:], "%d", &v)
				sum += v
			}
		}
	}
	return sum
}

// TestClusterSweepExactlyOnce is the healthy-cluster acceptance test: a
// full 12x4 sweep issued round-robin across a 3-node cluster must produce
// bytes identical to a single-node run, with every spec simulated exactly
// once cluster-wide — each simulation landing on the key's ring owner, the
// rest answered by proxying — and a second pass must simulate nothing.
func TestClusterSweepExactlyOnce(t *testing.T) {
	ctx := context.Background()
	nodes := startCluster(t, 3, 1, nil)
	specs := fullSweep()
	baseline, keys := sweepBaseline(t, specs)

	// Expected distribution: the owner simulates; a non-owner entry point
	// proxies. All three ring views must agree on who owns what.
	ownerOf := make([]string, len(specs))
	wantSims := map[string]int32{}
	wantProxies := 0
	for i, key := range keys {
		ownerOf[i] = nodes[0].cl.Owner(key)
		for _, n := range nodes[1:] {
			if got := n.cl.Owner(key); got != ownerOf[i] {
				t.Fatalf("ring views disagree on %s: %s vs %s", key[:8], ownerOf[i], got)
			}
		}
		wantSims[ownerOf[i]]++
		if nodes[i%len(nodes)].url != ownerOf[i] {
			wantProxies++
		}
	}

	for i, spec := range specs {
		raw, err := nodes[i%len(nodes)].c.RunRaw(ctx, spec)
		if err != nil {
			t.Fatalf("spec %d via node %d: %v", i, i%len(nodes), err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("spec %d (%s/%s): cluster bytes differ from single-node baseline", i, spec.App, spec.System)
		}
	}

	var total int32
	for _, n := range nodes {
		got := n.sims.Load()
		total += got
		if want := wantSims[n.url]; got != want {
			t.Fatalf("node %s simulated %d specs, want %d (its owned share)", n.url, got, want)
		}
	}
	if total != int32(len(specs)) {
		t.Fatalf("cluster-wide simulations = %d, want exactly %d", total, len(specs))
	}

	gotProxies := int64(0)
	for _, n := range nodes {
		text, err := n.c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gotProxies += metricSum(text, "netcached_cluster_proxied_total")
		if v := metricValue(t, text, "netcached_cluster_fallback_recomputes_total"); v != 0 {
			t.Fatalf("node %s fell back to recompute %d times in a healthy cluster", n.url, v)
		}
		if v := metricValue(t, text, "netcached_cluster_rebalance_owed"); v != 0 {
			t.Fatalf("node %s owes %d deliveries in a healthy cluster", n.url, v)
		}
	}
	if gotProxies != int64(wantProxies) {
		t.Fatalf("proxied_total across nodes = %d, want %d", gotProxies, wantProxies)
	}

	// Introspection: every member reports the same ring and all-up peers.
	for _, n := range nodes {
		cs, err := n.c.ClusterStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !cs.Enabled || cs.Self != n.url || cs.Replication != 1 || len(cs.Peers) != 3 {
			t.Fatalf("cluster status of %s = %+v", n.url, cs)
		}
		for _, p := range cs.Peers {
			if !p.Up {
				t.Fatalf("peer %s reported down on %s", p.URL, n.url)
			}
		}
	}

	// A second round-robin pass is all store reads and proxy fills:
	// nothing simulates again anywhere.
	for i, spec := range specs {
		raw, err := nodes[(i+1)%len(nodes)].c.RunRaw(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("second pass spec %d: bytes changed", i)
		}
	}
	var after int32
	for _, n := range nodes {
		after += n.sims.Load()
	}
	if after != total {
		t.Fatalf("second pass re-simulated: %d -> %d", total, after)
	}
}

// TestClusterPartitionFlap drives the partition/flap acceptance scenario
// with the chaos injector armed on every node's HTTP layer: a 12x4 sweep
// starts against a healthy 3-node cluster, one member is killed mid-sweep,
// the survivors complete the sweep byte-identically via recompute fallback
// and owe the dead owner each of its keys they hold, and once the member
// returns the owed count falls to zero and the revived node serves its
// pushed keys without simulating.
func TestClusterPartitionFlap(t *testing.T) {
	if testing.Short() {
		t.Skip("partition flap runs the full figure corpus; skipped in -short")
	}
	ctx := context.Background()
	injectors := make([]*faults.Injector, 3)
	chaos := func(i int, cfg *Config) {
		inj := faults.New(uint64(77 + i))
		inj.Set(faults.HTTPError, 0.05)
		inj.Set(faults.HTTPLatency, 0.05)
		inj.Set(faults.HTTPDisconnect, 0.03)
		injectors[i] = inj
		cfg.Inject = inj
	}
	nodes := startCluster(t, 3, 1, chaos)
	for i, n := range nodes {
		n.c.Retry = RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: uint64(i + 9)}
	}
	specs := fullSweep()
	baseline, keys := sweepBaseline(t, specs)

	const victim = 2
	half := len(specs) / 2

	// Phase 1: healthy cluster, chaos flapping individual requests.
	for i := 0; i < half; i++ {
		raw, err := nodes[i%3].c.RunRaw(ctx, specs[i])
		if err != nil {
			t.Fatalf("phase 1 spec %d: %v", i, err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("phase 1 spec %d: bytes differ from baseline", i)
		}
	}

	// Partition: the victim dies mid-sweep.
	nodes[victim].stop(t)

	// Phase 2: survivors finish the sweep. Keys owned by the victim are
	// recomputed locally and owed to it.
	var hinted []int
	for i := half; i < len(specs); i++ {
		entry := nodes[i%2].c // round-robin over the two survivors
		raw, err := entry.RunRaw(ctx, specs[i])
		if err != nil {
			t.Fatalf("phase 2 spec %d: %v", i, err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("phase 2 spec %d: bytes differ from baseline with a peer down", i)
		}
		if nodes[0].cl.Owner(keys[i]) == nodes[victim].url {
			hinted = append(hinted, i)
		}
	}
	if len(hinted) == 0 {
		t.Fatal("ring assigned the victim no phase-2 keys; partition exercised nothing")
	}
	// Each survivor owes the victim exactly the victim-owned keys in its
	// store: the phase-2 recomputes plus its phase-1 read-through fills.
	for _, n := range nodes[:victim] {
		want := 0
		for _, key := range n.st.Keys() {
			if n.cl.Owner(key) == nodes[victim].url {
				want++
			}
		}
		waitFor(t, fmt.Sprintf("%s to owe the victim %d keys", n.url, want), func() bool {
			return n.srv.RebalanceStatus().Owed == uint64(want)
		})
	}

	// Flap back: the victim returns on the same address with its old store.
	revived := restartNode(t, nodes, victim, 1, chaos)

	// Probes revive the peer, and the rebalance passes deliver every key
	// owed to it.
	waitFor(t, "owed deliveries to drain", func() bool {
		return nodes[0].srv.RebalanceStatus().Owed+nodes[1].srv.RebalanceStatus().Owed == 0
	})
	for _, i := range hinted {
		if body, ok := revived.st.Get(keys[i]); !ok {
			t.Fatalf("pushed key %s missing from revived owner", keys[i][:8])
		} else if !bytes.Equal(body, baseline[i]) {
			t.Fatalf("pushed key %s: owner's bytes differ from baseline", keys[i][:8])
		}
	}

	// With chaos quiesced, a full third pass over the healed cluster is
	// pure cache: byte-identical everywhere, zero new simulations — the
	// revived node serves its handed-off keys without recomputing them.
	for _, inj := range injectors {
		inj.Set(faults.HTTPError, 0)
		inj.Set(faults.HTTPLatency, 0)
		inj.Set(faults.HTTPDisconnect, 0)
	}
	all := []*cnode{nodes[0], nodes[1], revived}
	var before int32
	for _, n := range all {
		before += n.sims.Load()
	}
	for i, spec := range specs {
		raw, err := all[i%3].c.RunRaw(ctx, spec)
		if err != nil {
			t.Fatalf("healed pass spec %d: %v", i, err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("healed pass spec %d: bytes differ", i)
		}
	}
	var after int32
	for _, n := range all {
		after += n.sims.Load()
	}
	if after != before {
		t.Fatalf("healed cluster re-simulated: %d new runs", after-before)
	}
}

// TestClusterReplicationServesLocally: with RF=2 every key has two
// authoritative homes; a replica entry point must answer locally (no
// proxy), and only a non-replica proxies.
func TestClusterReplicationServesLocally(t *testing.T) {
	ctx := context.Background()
	nodes := startCluster(t, 3, 2, manualLoops)
	spec := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	var replicas, outsiders []*cnode
	for _, n := range nodes {
		if n.cl.IsReplica(key) {
			replicas = append(replicas, n)
		} else {
			outsiders = append(outsiders, n)
		}
	}
	if len(replicas) != 2 || len(outsiders) != 1 {
		t.Fatalf("replica split = %d/%d, want 2/1", len(replicas), len(outsiders))
	}

	// Each replica simulates its own copy — local authority, no proxying.
	for _, n := range replicas {
		if _, err := n.c.RunRaw(ctx, spec); err != nil {
			t.Fatal(err)
		}
		if got := n.sims.Load(); got != 1 {
			t.Fatalf("replica %s simulated %d times, want 1", n.url, got)
		}
	}
	// The outsider proxies and fills; it never simulates.
	if _, err := outsiders[0].c.RunRaw(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if got := outsiders[0].sims.Load(); got != 0 {
		t.Fatalf("non-replica simulated %d times, want 0 (should proxy)", got)
	}
	text, err := outsiders[0].c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricSum(text, "netcached_cluster_proxied_total"); got != 1 {
		t.Fatalf("non-replica proxied %d requests, want 1", got)
	}
}

// TestUpstreamReadThrough: a node configured with -upstream consults the
// upstream's store (GET /v1/result/{key}, never simulating upstream)
// before simulating locally, persists hits, and counts misses.
func TestUpstreamReadThrough(t *testing.T) {
	ctx := context.Background()

	upStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer upStore.Close()
	var upSims atomic.Int32
	_, upClient := start(t, Config{Store: upStore, Workers: 2, RunFunc: countingRun(&upSims)})

	cached := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05}
	want, err := upClient.RunRaw(ctx, cached)
	if err != nil {
		t.Fatal(err)
	}

	downStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer downStore.Close()
	var downSims atomic.Int32
	_, downClient := start(t, Config{
		Store:    downStore,
		Workers:  2,
		RunFunc:  countingRun(&downSims),
		Upstream: NewClient(upClient.BaseURL),
	})

	// Hit: served from upstream, nothing simulated downstream, and the
	// bytes are persisted locally so the next read never leaves the node.
	got, err := downClient.RunRaw(ctx, cached)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("upstream read-through returned different bytes")
	}
	if downSims.Load() != 0 {
		t.Fatal("downstream simulated despite an upstream hit")
	}
	if _, err := downClient.RunRaw(ctx, cached); err != nil {
		t.Fatal(err)
	}
	text, err := downClient.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "netcached_upstream_hits_total"); v != 1 {
		t.Fatalf("upstream hits = %d, want 1 (second read must be local)", v)
	}

	// Miss: the upstream lookup is store-only — it must NOT trigger an
	// upstream simulation; the downstream simulates instead.
	miss := netcache.RunSpec{App: "fft", System: netcache.SystemNetCache, Scale: 0.05}
	upBefore := upSims.Load()
	if _, err := downClient.RunRaw(ctx, miss); err != nil {
		t.Fatal(err)
	}
	if downSims.Load() != 1 {
		t.Fatalf("downstream sims = %d, want 1 after an upstream miss", downSims.Load())
	}
	if upSims.Load() != upBefore {
		t.Fatal("store-only upstream lookup triggered an upstream simulation")
	}
	text, err = downClient.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "netcached_upstream_misses_total"); v != 1 {
		t.Fatalf("upstream misses = %d, want 1", v)
	}
}

// TestUpstreamNonJSONNotStored: an upstream that answers a lookup with 200
// and bytes that are not JSON is passed through to the client, but the
// node does not store them: a replica would refuse them on every
// rebalance push, so a non-replica holding them would owe them forever.
func TestUpstreamNonJSONNotStored(t *testing.T) {
	junk := []byte("not json\n")
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(junk)
	}))
	t.Cleanup(up.Close)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var sims atomic.Int32
	_, c := start(t, Config{Store: st, Workers: 1, RunFunc: countingRun(&sims), Upstream: NewClient(up.URL)})

	spec := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05}
	got, err := c.RunRaw(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, junk) || sims.Load() != 0 {
		t.Fatalf("reply %q after %d simulations, want the upstream's bytes and none", got, sims.Load())
	}
	if keys := st.Keys(); len(keys) != 0 {
		t.Fatalf("store holds %d keys, want none", len(keys))
	}
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "netcached_store_fills_refused_total"); v != 1 {
		t.Fatalf("fills refused = %d, want 1", v)
	}
}

// TestResultRepliesSized: a stored result of about 8 KB, past net/http's
// 2 KiB response buffer, comes back with its length declared and unchunked
// on every path that serves one: a /v1/run hit, GET /v1/result/{key},
// /v1/batch, and /v1/run across one proxy hop. A reader sizes one buffer
// from the declared length.
func TestResultRepliesSized(t *testing.T) {
	nodes := startCluster(t, 2, 1, manualLoops)
	a, b := nodes[0], nodes[1]
	var spec netcache.RunSpec
	var key string
	for i := 1; key == "" || a.cl.Owner(key) != a.url; i++ {
		spec = netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: float64(i) / 100}
		var err error
		if key, err = spec.Key(); err != nil {
			t.Fatal(err)
		}
	}
	value := []byte(fmt.Sprintf(`{"app":"sor","pad":%q}`, strings.Repeat("x", 8<<10)))
	if err := a.st.Put(key, value); err != nil {
		t.Fatal(err)
	}
	specBody, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	batchBody, err := json.Marshal(BatchRequest{Specs: []netcache.RunSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}

	hc := &http.Client{}
	t.Cleanup(hc.CloseIdleConnections)
	for _, tc := range []struct {
		name, method, url string
		body              []byte
	}{
		{"run hit", http.MethodPost, a.url + "/v1/run", specBody},
		{"result lookup", http.MethodGet, a.url + "/v1/result/" + key, nil},
		{"batch", http.MethodPost, a.url + "/v1/batch", batchBody},
		{"proxied run", http.MethodPost, b.url + "/v1/run", specBody},
	} {
		req, err := http.NewRequest(tc.method, tc.url, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", tc.name, resp.StatusCode, err, got)
		}
		if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %q for a %d-byte body",
				tc.name, resp.ContentLength, resp.TransferEncoding, len(got))
		}
		if tc.name == "batch" {
			var br BatchResponse
			if err := json.Unmarshal(got, &br); err != nil || len(br.Results) != 1 {
				t.Fatalf("batch: %v, %d entries", err, len(br.Results))
			}
			got = br.Results[0].Result
		}
		if !bytes.Equal(got, value) {
			t.Errorf("%s: reply is not the stored value (%d bytes, want %d)", tc.name, len(got), len(value))
		}
	}
	if n := b.sims.Load() + a.sims.Load(); n != 0 {
		t.Fatalf("%d simulations; every reply should come from A's store", n)
	}
}

// TestJSONRepliesSized: the control replies a peer reads declare their
// length too: a 256-key presence check (about 17 KB), the outcomes of a
// 256-entry push, /v1/cluster, and an error.
func TestJSONRepliesSized(t *testing.T) {
	nodes := startCluster(t, 2, 1, manualLoops)
	a := nodes[0]
	keys := make([]string, transferBatchKeys)
	frames := make([]ResultFrame, transferBatchKeys)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("sized-%d", i))
		frames[i] = ResultFrame{Key: keys[i], Value: []byte(`{"n":1}`)}
	}
	missingBody, err := json.Marshal(MissingRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}

	hc := &http.Client{}
	t.Cleanup(hc.CloseIdleConnections)
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		code               int
		check              func(body []byte) error
	}{
		{"presence check", http.MethodPost, "/v1/results/missing", missingBody, http.StatusOK, func(b []byte) error {
			var r MissingResponse
			if err := json.Unmarshal(b, &r); err != nil || len(r.Missing) != len(keys) {
				return fmt.Errorf("%d missing keys (%v), want %d", len(r.Missing), err, len(keys))
			}
			return nil
		}},
		{"push", http.MethodPost, "/v1/results", encodeFrames(frames), http.StatusOK, func(b []byte) error {
			var r PushResponse
			if err := json.Unmarshal(b, &r); err != nil || len(r.Results) != len(frames) {
				return fmt.Errorf("%d outcomes (%v), want %d", len(r.Results), err, len(frames))
			}
			return nil
		}},
		{"cluster", http.MethodGet, "/v1/cluster", nil, http.StatusOK, func(b []byte) error {
			var r ClusterResponse
			if err := json.Unmarshal(b, &r); err != nil || !r.Enabled || len(r.Peers) != 2 {
				return fmt.Errorf("cluster reply %+v (%v)", r, err)
			}
			return nil
		}},
		{"error", http.MethodGet, "/v1/run", nil, http.StatusMethodNotAllowed, func(b []byte) error {
			if !bytes.Equal(b, []byte("{\"error\":\"POST a RunSpec\"}\n")) {
				return fmt.Errorf("error reply %q", b)
			}
			return nil
		}},
	} {
		req, err := http.NewRequest(tc.method, a.url+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, %v: %s", tc.name, resp.StatusCode, err, got)
		}
		if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %q for a %d-byte body",
				tc.name, resp.ContentLength, resp.TransferEncoding, len(got))
		}
		if err := tc.check(got); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// BenchmarkClusterProxy measures the proxy-path round trip: a store-less
// entry node forwards every request to the owner, which answers from its
// store. Two full HTTP hops per op — the latency a non-owner read costs.
func BenchmarkClusterProxy(b *testing.B) {
	ctx := context.Background()
	listeners := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	boot := func(i int, cfg Config) *Server {
		cl, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls, Replication: 1})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Cluster = cl
		srv := New(cfg)
		go srv.Serve(listeners[i])
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		return srv
	}

	dir := b.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	boot(0, Config{Store: st, Workers: 2})
	boot(1, Config{Workers: 2}) // store-less: every request proxies

	// Find a spec owned by node 0 so node 1 always forwards.
	ring, err := cluster.NewRing(urls, 0)
	if err != nil {
		b.Fatal(err)
	}
	var spec netcache.RunSpec
	found := false
	for _, app := range netcache.Apps() {
		s := netcache.RunSpec{App: app, System: netcache.SystemNetCache, Scale: 0.05}
		key, err := s.Key()
		if err != nil {
			b.Fatal(err)
		}
		if ring.Owner(key) == urls[0] {
			spec, found = s, true
			break
		}
	}
	if !found {
		b.Fatal("no app hashed to node 0")
	}

	entry := NewClient(urls[1])
	entry.HTTPClient = &http.Client{}
	defer entry.HTTPClient.CloseIdleConnections()
	if _, err := entry.RunRaw(ctx, spec); err != nil { // warm the owner's store
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := entry.RunRaw(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}
