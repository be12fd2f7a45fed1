package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
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

// TestMembershipGossip covers the epoch plumbing in isolation: an admin
// change at one member must reach every other member (push + epoch-header
// gossip), a removed node must observe it left, and a rejoin must restore
// it — with every response stamped with the current epoch.
func TestMembershipGossip(t *testing.T) {
	ctx := context.Background()
	nodes := startCluster(t, 3, 1, nil)

	m0, err := nodes[0].c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m0.Epoch != 0 || len(m0.Peers) != 3 {
		t.Fatalf("initial membership = epoch %d, %d peers, want epoch 0 with 3 peers", m0.Epoch, len(m0.Peers))
	}

	// Unknown actions and empty peers are rejected without moving the epoch.
	if _, err := nodes[0].c.UpdateMembership(ctx, "explode", nodes[2].url); err == nil {
		t.Fatal("unknown action accepted")
	}
	if _, err := nodes[0].c.UpdateMembership(ctx, cluster.ActionJoin, ""); err == nil {
		t.Fatal("empty peer accepted")
	}
	if got := nodes[0].cl.Epoch(); got != 0 {
		t.Fatalf("rejected actions moved the epoch to %d", got)
	}

	// Remove the third node via the first: the push fan-out (old + new
	// members) converges everyone, including the removed node itself.
	m1, err := nodes[0].c.UpdateMembership(ctx, cluster.ActionRemove, nodes[2].url)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Epoch != 1 || len(m1.Peers) != 2 {
		t.Fatalf("post-remove membership = epoch %d, %d peers, want epoch 1 with 2 peers", m1.Epoch, len(m1.Peers))
	}
	waitFor(t, "removal to gossip to every node", func() bool {
		return nodes[1].cl.Epoch() == m1.Epoch && nodes[2].cl.Epoch() == m1.Epoch
	})
	if !nodes[2].cl.Left() {
		t.Fatal("removed node does not report Left")
	}
	if nodes[0].cl.Member(nodes[2].url) {
		t.Fatal("remover still lists the removed node as a member")
	}

	// Rejoin via the *other* survivor; all three converge again and the
	// rejoined node is a member once more.
	m2, err := nodes[1].c.UpdateMembership(ctx, cluster.ActionJoin, nodes[2].url)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch != 2 || len(m2.Peers) != 3 {
		t.Fatalf("post-rejoin membership = epoch %d, %d peers", m2.Epoch, len(m2.Peers))
	}
	waitFor(t, "rejoin to gossip to every node", func() bool {
		for _, n := range nodes {
			if n.cl.Epoch() != m2.Epoch {
				return false
			}
		}
		return true
	})
	if nodes[2].cl.Left() {
		t.Fatal("rejoined node still reports Left")
	}

	// Every response carries the epoch header.
	resp, err := nodes[0].c.HTTPClient.Get(nodes[0].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(epochHeader); got != fmt.Sprint(m2.Epoch) {
		t.Fatalf("%s header = %q, want %d", epochHeader, got, m2.Epoch)
	}

	// The pull path: a request stamped with a higher epoch and an internode
	// return address makes a stale node fetch and adopt the newer ring —
	// how stale routers catch up without being refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stale := bootClusterNode(t, []string{"http://" + l.Addr().String()}, 0, t.TempDir(), nil, l, 1, nil)
	req, err := http.NewRequest(http.MethodGet, stale.url+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(epochHeader, fmt.Sprint(m2.Epoch))
	req.Header.Set(internodeHeader, nodes[0].url)
	resp, err = nodes[0].c.HTTPClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, "stale node to pull the newer membership", func() bool {
		return stale.cl.Epoch() == m2.Epoch
	})

	// GET /v1/cluster surfaces the epoch and churn-repair state.
	cs, err := nodes[0].c.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Epoch != m2.Epoch || cs.Left || cs.Rebalance == nil {
		t.Fatalf("cluster status = %+v, want epoch %d with rebalance state", cs, m2.Epoch)
	}
}

// TestRebalanceJoinDrain drives the fault-free join and decommission
// paths: a sweep lands on a 2-node ring, a third node joins and the pass
// streams its share over, then the joiner is decommissioned and drains
// every key it holds back to the survivors before reporting Done.
func TestRebalanceJoinDrain(t *testing.T) {
	ctx := context.Background()
	fast := func(_ int, cfg *Config) {
		cfg.RebalanceInterval = 25 * time.Millisecond
	}
	nodes := startCluster(t, 2, 1, fast)
	specs := fullSweep()
	baseline, keys := sweepBaseline(t, specs)
	for i, spec := range specs {
		raw, err := nodes[i%2].c.RunRaw(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("spec %d: bytes differ from baseline", i)
		}
	}

	// A third node joins through an admin POST at node 0.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joiner := bootClusterNode(t, []string{"http://" + l.Addr().String()}, 0, t.TempDir(), nil, l, 1, fast)
	m1, err := nodes[0].c.UpdateMembership(ctx, cluster.ActionJoin, joiner.url)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "join epoch convergence", func() bool {
		return nodes[0].cl.Epoch() == m1.Epoch && nodes[1].cl.Epoch() == m1.Epoch && joiner.cl.Epoch() == m1.Epoch
	})

	// The survivors' passes stream every key the joiner now owns to it.
	owned := 0
	for _, key := range keys {
		if joiner.cl.Owner(key) == joiner.url {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("ring remapped nothing to the joiner; rebalance exercised nothing")
	}
	waitFor(t, "rebalance to stream the joiner's keys", func() bool {
		for i, key := range keys {
			if joiner.cl.Owner(key) != joiner.url {
				continue
			}
			body, ok := joiner.st.Get(key)
			if !ok || !bytes.Equal(body, baseline[i]) {
				return false
			}
		}
		return true
	})

	// The joiner serves its inherited keys from its store: a full pass via
	// the joiner simulates nothing anywhere.
	var before int32
	for _, n := range append(nodes, joiner) {
		before += n.sims.Load()
	}
	for i, spec := range specs {
		raw, err := joiner.c.RunRaw(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("post-join spec %d: bytes differ", i)
		}
	}
	var after int32
	for _, n := range append(nodes, joiner) {
		after += n.sims.Load()
	}
	if after != before {
		t.Fatalf("post-join pass re-simulated %d specs", after-before)
	}
	if joiner.sims.Load() != 0 {
		t.Fatalf("joiner simulated %d specs; its keys should have been streamed to it", joiner.sims.Load())
	}

	// Decommission the joiner: it observes it left, drains everything it
	// holds to the new owners, and reports Done at the decommission epoch.
	m2, err := nodes[1].c.UpdateMembership(ctx, cluster.ActionDecommission, joiner.url)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "decommissioned node to observe it left", func() bool { return joiner.cl.Left() })
	waitFor(t, "decommissioned node to drain", func() bool {
		rs := joiner.srv.RebalanceStatus()
		return rs.Epoch == m2.Epoch && rs.Done
	})
	for _, key := range joiner.st.Keys() {
		owner := nodes[0].cl.Owner(key)
		var home *cnode
		for _, n := range nodes {
			if n.url == owner {
				home = n
			}
		}
		if home == nil {
			t.Fatalf("key %s owned by %s, not a survivor", key[:8], owner)
		}
		if _, ok := home.st.Get(key); !ok {
			t.Fatalf("drained key %s missing from its new owner %s", key[:8], owner)
		}
	}
	joiner.stop(t)

	// Survivors answer the whole corpus without re-simulating.
	before = nodes[0].sims.Load() + nodes[1].sims.Load()
	for i, spec := range specs {
		raw, err := nodes[i%2].c.RunRaw(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("post-drain spec %d: bytes differ", i)
		}
	}
	if got := nodes[0].sims.Load() + nodes[1].sims.Load(); got != before {
		t.Fatalf("post-drain pass re-simulated %d specs", got-before)
	}
}

// TestAntiEntropyRepair manufactures replica divergence directly in the
// stores of an RF=2 pair and checks the digest exchange heals it push-only:
// one pass on A pushes the keys only A holds, one pass on B pushes the
// keys only B holds, and then a pass from either side moves nothing.
func TestAntiEntropyRepair(t *testing.T) {
	ctx := context.Background()
	nodes := startCluster(t, 2, 2, manualLoops)
	waitFor(t, "peers to probe up", func() bool {
		return nodes[0].cl.Up(nodes[1].url) && nodes[1].cl.Up(nodes[0].url)
	})

	keyOf := func(i int) string {
		sum := sha256.Sum256([]byte(fmt.Sprintf("antientropy-%d", i)))
		return hex.EncodeToString(sum[:])
	}
	// The push target (POST /v1/results) validates values as JSON, like every
	// real result; divergent replicas are seeded with distinct JSON values.
	valOf := func(i int) []byte { return []byte(fmt.Sprintf(`{"replica":%d}`, i)) }
	const onlyA, onlyB = 20, 5
	for i := 0; i < onlyA; i++ {
		if err := nodes[0].st.Put(keyOf(i), valOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := onlyA; i < onlyA+onlyB; i++ {
		if err := nodes[1].st.Put(keyOf(i), valOf(i)); err != nil {
			t.Fatal(err)
		}
	}

	if moved, _ := nodes[0].srv.RebalancePass(ctx); moved != onlyA {
		t.Fatalf("pass on A pushed %d keys, want %d", moved, onlyA)
	}
	if moved, _ := nodes[1].srv.RebalancePass(ctx); moved != onlyB {
		t.Fatalf("pass on B pushed %d keys, want %d", moved, onlyB)
	}
	for i := 0; i < onlyA+onlyB; i++ {
		for _, n := range nodes {
			body, ok := n.st.Get(keyOf(i))
			if !ok {
				t.Fatalf("key %d missing from %s after repair", i, n.url)
			}
			if !bytes.Equal(body, valOf(i)) {
				t.Fatalf("key %d on %s: bytes diverged", i, n.url)
			}
		}
	}

	// Converged: the digests match, so neither side offers a key.
	for _, n := range nodes {
		if moved, skipped := n.srv.RebalancePass(ctx); moved+skipped != 0 {
			t.Fatalf("pass on %s moved %d and offered %d present keys on a converged pair", n.url, moved, skipped)
		}
	}
	for i, n := range nodes {
		text, err := n.c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{onlyA, onlyB}[i]
		if v := metricValue(t, text, "netcached_cluster_rebalance_moved_total"); v != want {
			t.Fatalf("%s: rebalance_moved_total = %d, want %d", n.url, v, want)
		}
		if v := metricValue(t, text, "netcached_cluster_rebalance_received_total"); v != onlyA+onlyB-want {
			t.Fatalf("%s: rebalance_received_total = %d, want %d", n.url, v, onlyA+onlyB-want)
		}
	}
}

// TestReplicationExceedsLivePeers: churn can shrink the membership below
// the configured replication factor. The replica walk must clamp to the
// live peers (never block or error hunting for peers that do not exist),
// serving must continue from the survivor, and the rebalance pass must
// report a clean, complete pass rather than wedging on the unreachable
// replica count.
func TestReplicationExceedsLivePeers(t *testing.T) {
	ctx := context.Background()
	nodes := startCluster(t, 2, 2, func(_ int, cfg *Config) {
		cfg.RebalanceInterval = 10 * time.Minute // drive passes by hand
	})
	waitFor(t, "peers to probe up", func() bool {
		return nodes[0].cl.Up(nodes[1].url) && nodes[1].cl.Up(nodes[0].url)
	})

	specs := make([]netcache.RunSpec, 0, 4)
	for _, app := range netcache.Apps()[:4] {
		specs = append(specs, netcache.RunSpec{App: app, System: netcache.SystemNetCache, Scale: 0.05})
	}
	baseline := make([][]byte, len(specs))
	for i, spec := range specs {
		body, err := nodes[0].c.RunRaw(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = body
	}

	// Shrink the membership below RF: one live peer, replication still 2.
	m, err := nodes[0].c.UpdateMembership(ctx, cluster.ActionRemove, nodes[1].url)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "removal epoch to land on the survivor", func() bool {
		return nodes[0].cl.Epoch() == m.Epoch
	})
	nodes[1].stop(t)

	// The replica walk clamps to the single live peer for every key.
	_, ring := nodes[0].cl.View()
	rf := nodes[0].cl.Replication()
	if rf != 2 {
		t.Fatalf("replication = %d, want the configured 2", rf)
	}
	for _, spec := range specs {
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		reps := ring.Replicas(key, rf)
		if len(reps) != 1 || reps[0] != nodes[0].url {
			t.Fatalf("replica walk for %s = %v, want just the survivor", key[:8], reps)
		}
	}

	// Serving continues: every earlier result comes back byte-identical
	// from the store, and a novel spec still simulates locally.
	before := nodes[0].sims.Load()
	for i, spec := range specs {
		body, err := nodes[0].c.RunRaw(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, baseline[i]) {
			t.Fatalf("spec %d: bytes differ after the membership shrank", i)
		}
	}
	if d := nodes[0].sims.Load() - before; d != 0 {
		t.Fatalf("%d re-simulations serving cached results below RF", d)
	}
	novel := netcache.RunSpec{App: netcache.Apps()[4], System: netcache.SystemNetCache, Scale: 0.05}
	if _, err := nodes[0].c.RunRaw(ctx, novel); err != nil {
		t.Fatalf("novel spec below RF: %v", err)
	}

	// Rebalance: a full pass completes Done at the shrunk epoch — there is
	// nowhere to push to, and that must read as "done", not as failure.
	nodes[0].srv.RebalancePass(ctx)
	rs := nodes[0].srv.RebalanceStatus()
	if rs.Epoch != m.Epoch || !rs.Done || rs.Moved != 0 || rs.Errors != 0 {
		t.Fatalf("rebalance status below RF = %+v, want clean Done at epoch %d", rs, m.Epoch)
	}

	// No live peers means a clean no-op pass.
	if moved, skipped := nodes[0].srv.RebalancePass(ctx); moved+skipped != 0 {
		t.Fatalf("pass below RF repaired %d+%d keys with no peers", moved, skipped)
	}
}

// TestRebalanceBackToBackEpochs: a replica one pass could not reach must
// get its keys from a later pass, even after another epoch lands that
// leaves those keys' replica set unchanged. Four nodes at RF=2 with A's
// requests to C refused: B is removed (epoch 1) and A's pass ends owing
// C the keys whose replica set gained it. C's requests then go through,
// D is removed (epoch 2), and once A reports Done at epoch 2 C must hold
// every one of those keys.
func TestRebalanceBackToBackEpochs(t *testing.T) {
	ctx := context.Background()
	ls, urls := listenN(t, 4)
	var refuse atomic.Bool
	refuse.Store(true)
	mutate := func(i int, cfg *Config) {
		manualLoops(i, cfg)
		if i != 0 {
			return
		}
		internode := cfg.Internode
		cfg.Internode = func(peer string) *Client {
			c := internode(peer)
			if peer == urls[2] {
				c.HTTPClient = &http.Client{Transport: refusingTransport{&refuse}}
			}
			return c
		}
	}
	nodes := make([]*cnode, len(urls))
	for i := range nodes {
		nodes[i] = bootClusterNode(t, urls, i, t.TempDir(), nil, ls[i], 2, mutate)
	}
	a, b, c, d := nodes[0], nodes[1], nodes[2], nodes[3]
	waitFor(t, "A to see C down", func() bool { return !a.cl.Up(c.url) })

	_, ring0 := a.cl.View()
	var keys []string
	for i := 0; len(keys) < 200; i++ {
		key := testKey(fmt.Sprint("back-to-back-", i))
		if !a.cl.IsReplica(key) {
			continue
		}
		if err := a.st.Put(key, []byte(fmt.Sprintf(`{"entry":%d}`, i))); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}

	b.stop(t)
	m1, err := a.c.UpdateMembership(ctx, cluster.ActionRemove, b.url)
	if err != nil {
		t.Fatal(err)
	}
	a.srv.RebalancePass(ctx)
	if rs := a.srv.RebalanceStatus(); rs.Epoch != m1.Epoch || rs.Done {
		t.Fatalf("A's pass at epoch %d with C unreachable: %+v, want not Done", m1.Epoch, rs)
	}
	_, ring1 := a.cl.View()
	var gained []string
	for _, key := range keys {
		if !slices.Contains(ring0.Replicas(key, 2), c.url) && slices.Contains(ring1.Replicas(key, 2), c.url) {
			gained = append(gained, key)
		}
	}
	if len(gained) == 0 {
		t.Fatal("no key's replica set gained C at epoch 1; the scenario exercised nothing")
	}

	refuse.Store(false)
	waitFor(t, "A to see C up", func() bool { return a.cl.Up(c.url) })
	m2, err := a.c.UpdateMembership(ctx, cluster.ActionRemove, d.url)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "A to report Done at epoch 2", func() bool {
		rs := a.srv.RebalanceStatus()
		return rs.Epoch == m2.Epoch && rs.Done
	})
	lacks := 0
	for _, key := range gained {
		if _, ok := c.st.Get(key); !ok {
			lacks++
		}
	}
	if lacks > 0 {
		t.Fatalf("A reports Done at epoch %d, but C lacks %d of the %d keys it gained at epoch %d", m2.Epoch, lacks, len(gained), m1.Epoch)
	}
}

// refusingTransport fails every request while refuse is set.
type refusingTransport struct{ refuse *atomic.Bool }

func (rt refusingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if rt.refuse.Load() {
		return nil, errors.New("refused by test transport")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// simTracker records every simulation a node executes as (key, epoch at
// execution time) so the churn test can bound duplicate recomputes.
type simTracker struct {
	mu   sync.Mutex
	recs map[string]map[uint64]int // key -> epoch -> executions
}

func newSimTracker() *simTracker { return &simTracker{recs: make(map[string]map[uint64]int)} }

func (tr *simTracker) record(key string, epoch uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.recs[key] == nil {
		tr.recs[key] = make(map[uint64]int)
	}
	tr.recs[key][epoch]++
}

// duplicates counts executions beyond the first per (key, epoch) pair —
// the recomputes the "at most once per owner epoch" invariant forbids,
// modulo injected store faults.
func (tr *simTracker) duplicates() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	d := 0
	for _, byEpoch := range tr.recs {
		for _, n := range byEpoch {
			if n > 1 {
				d += n - 1
			}
		}
	}
	return d
}

// TestClusterChurnSweep is the churn acceptance gate: a full sweep runs
// against a 3-node RF=2 cluster under store and HTTP chaos while the
// membership churns — one node killed and removed, a fresh node joined,
// a node decommissioned and drained — and at quiesce the cluster must be
// byte-identical to the fault-free baseline, with nothing owed, a pass
// from either survivor finding nothing to push, and no spec recomputed
// within an owner epoch beyond what the injected store faults excuse.
func TestClusterChurnSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("churn sweep runs the full figure corpus under chaos; skipped in -short")
	}
	ctx := context.Background()
	specs := fullSweep()
	baseline, keys := sweepBaseline(t, specs)

	injectors := make([]*faults.Injector, 4)
	trackers := make([]*simTracker, 4)
	arm := func(inj *faults.Injector) {
		inj.Set(faults.HTTPError, 0.05)
		inj.Set(faults.HTTPLatency, 0.05)
		inj.Set(faults.StoreRead, 0.05)
		inj.Set(faults.StoreWrite, 0.05)
		inj.Set(faults.StoreCorrupt, 0.03)
	}
	mutate := func(slot int) func(int, *Config) {
		return func(_ int, cfg *Config) {
			cfg.Inject = injectors[slot]
			cfg.RebalanceInterval = 40 * time.Millisecond
			cfg.DegradedAfter = 1000 // store chaos must not flip read-only mode
			tr, cl, prev := trackers[slot], cfg.Cluster, cfg.RunFunc
			cfg.RunFunc = func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
				if key, err := spec.Key(); err == nil {
					tr.record(key, cl.Epoch())
				}
				return prev(ctx, spec)
			}
		}
	}

	listeners := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*cnode, 3)
	for i := range nodes {
		injectors[i] = faults.New(uint64(4242 + 101*i))
		arm(injectors[i])
		trackers[i] = newSimTracker()
		nodes[i] = bootClusterNode(t, urls, i, t.TempDir(), store.NewFaultFS(injectors[i]), listeners[i], 2, mutate(i))
	}
	retry := func(n *cnode, seed uint64) {
		n.c.Retry = RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: seed}
	}
	for i, n := range nodes {
		retry(n, uint64(17+i))
	}

	third := len(specs) / 3
	sweep := func(phase string, lo, hi int, entries []*cnode) {
		for i := lo; i < hi; i++ {
			raw, err := entries[i%len(entries)].c.RunRaw(ctx, specs[i])
			if err != nil {
				t.Fatalf("%s spec %d: %v", phase, i, err)
			}
			if !bytes.Equal(raw, baseline[i]) {
				t.Fatalf("%s spec %d: bytes differ from fault-free baseline", phase, i)
			}
		}
	}

	// Phase 1: healthy 3-node ring under chaos.
	sweep("phase 1", 0, third, nodes)

	// Kill one node mid-run and remove it from the membership.
	nodes[2].stop(t)
	m1, err := nodes[0].c.UpdateMembership(ctx, cluster.ActionRemove, nodes[2].url)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "removal epoch to reach the survivor", func() bool {
		return nodes[1].cl.Epoch() == m1.Epoch
	})

	// Phase 2: the two survivors absorb the dead node's key space.
	sweep("phase 2", third, 2*third, nodes[:2])

	// A fresh node joins mid-run: it boots as a single-node ring and the
	// join handshake folds it in; rebalance streams its share over.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	injectors[3] = faults.New(7777)
	arm(injectors[3])
	trackers[3] = newSimTracker()
	joiner := bootClusterNode(t, []string{"http://" + l.Addr().String()}, 0, t.TempDir(), store.NewFaultFS(injectors[3]), l, 2, mutate(3))
	retry(joiner, 23)
	m2, err := nodes[0].c.UpdateMembership(ctx, cluster.ActionJoin, joiner.url)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "join epoch convergence", func() bool {
		return nodes[0].cl.Epoch() == m2.Epoch && nodes[1].cl.Epoch() == m2.Epoch && joiner.cl.Epoch() == m2.Epoch
	})

	// Phase 3a: sweep across all three current members while the joiner is
	// still being backfilled.
	entries3 := []*cnode{nodes[0], nodes[1], joiner}
	sweep("phase 3a", 2*third, 2*third+third/2, entries3)

	// Decommission a member mid-run: it keeps serving while it drains.
	m3, err := nodes[0].c.UpdateMembership(ctx, cluster.ActionDecommission, nodes[1].url)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "decommissioned node to observe it left", func() bool { return nodes[1].cl.Left() })
	sweep("phase 3b", 2*third+third/2, len(specs), []*cnode{nodes[0], joiner})

	// Quiesce the chaos and let the churn repair machinery finish: the
	// decommissioned node drains to Done, then stops for good.
	for _, inj := range injectors {
		for _, site := range []string{faults.HTTPError, faults.HTTPLatency, faults.StoreRead, faults.StoreWrite, faults.StoreCorrupt} {
			inj.Set(site, 0)
		}
	}
	waitFor(t, "decommissioned node to drain", func() bool {
		rs := nodes[1].srv.RebalanceStatus()
		return rs.Epoch == m3.Epoch && rs.Done
	})
	nodes[1].stop(t)

	live := []*cnode{nodes[0], joiner}
	waitFor(t, "epoch convergence at quiesce", func() bool {
		return nodes[0].cl.Epoch() == m3.Epoch && joiner.cl.Epoch() == m3.Epoch
	})
	waitFor(t, "owed deliveries to drain", func() bool {
		return nodes[0].srv.RebalanceStatus().Owed+joiner.srv.RebalanceStatus().Owed == 0
	})
	waitFor(t, "rebalance to settle on the survivors", func() bool {
		for _, n := range live {
			rs := n.srv.RebalanceStatus()
			if rs.Epoch != m3.Epoch || !rs.Done {
				return false
			}
		}
		return true
	})

	// Heal pass: any key that died with the killed node is recomputed (at
	// most once, at the current epoch); everything else is served from the
	// surviving replicas.
	sweep("heal pass", 0, len(specs), live)
	waitFor(t, "a pass on each survivor to find nothing to push", func() bool {
		m0, _ := nodes[0].srv.RebalancePass(ctx)
		m1, _ := joiner.srv.RebalancePass(ctx)
		return m0+m1 == 0
	})

	// With RF=2 and two survivors, full replication means both hold every
	// key, byte-identical to the fault-free baseline.
	for i, key := range keys {
		for _, n := range live {
			body, ok := n.st.Get(key)
			if !ok {
				t.Fatalf("key %d (%s) missing from %s at quiesce", i, key[:8], n.url)
			}
			if !bytes.Equal(body, baseline[i]) {
				t.Fatalf("key %d on %s: bytes differ from baseline at quiesce", i, n.url)
			}
		}
	}

	// Final pass: pure cache — byte-identical, zero new simulations.
	all := []*cnode{nodes[0], nodes[1], nodes[2], joiner}
	var before int32
	for _, n := range all {
		before += n.sims.Load()
	}
	sweep("final pass", 0, len(specs), []*cnode{joiner, nodes[0]})
	var after int32
	for _, n := range all {
		after += n.sims.Load()
	}
	if after != before {
		t.Fatalf("final quiesced pass re-simulated %d specs", after-before)
	}

	// No duplicate recompute per owner epoch, beyond what injected store
	// faults excuse (a failed Put or faulted read legitimately forces one).
	for slot, tr := range trackers {
		budget := 0
		for site, ss := range injectors[slot].Stats() {
			if strings.HasPrefix(site, "store.") {
				budget += int(ss.Fired)
			}
		}
		if d := tr.duplicates(); d > budget {
			t.Errorf("node %d: %d duplicate simulations within an epoch, store-fault budget %d", slot, d, budget)
		}
	}
}

// BenchmarkRebalance measures a steady-state rebalance pass over a fixed
// resident corpus: every key already at its other replica, so the pass is
// one digest exchange whose 16 ranges all match and nothing offered — the
// recurring cost of the pass once a ring change has been absorbed. The
// first (unmeasured) pass pays the actual moves.
func BenchmarkRebalance(b *testing.B) {
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
	srvs := make([]*Server, 2)
	for i := range srvs {
		st, err := store.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		cl, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls, Replication: 2})
		if err != nil {
			b.Fatal(err)
		}
		srvs[i] = New(Config{
			Store:             st,
			Workers:           2,
			Cluster:           cl,
			RebalanceInterval: 10 * time.Minute,
		})
		l := listeners[i]
		srv := srvs[i]
		go srv.Serve(l)
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}

	const residents = 64
	payload := []byte(fmt.Sprintf(`{"payload":%q}`, strings.Repeat("netcache-rebalance-bench", 85))) // ~2 KiB JSON
	for i := 0; i < residents; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("rebalance-bench-%d", i)))
		if err := srvs[0].cfg.Store.Put(hex.EncodeToString(sum[:]), payload); err != nil {
			b.Fatal(err)
		}
	}
	srvs[0].RebalancePass(ctx) // pay the moves up front

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if moved, _ := srvs[0].RebalancePass(ctx); moved != 0 {
			b.Fatalf("steady-state pass moved %d keys", moved)
		}
	}
	b.ReportMetric(float64(residents), "keys/pass")
}
