package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func newTestCluster(t *testing.T, probe func(ctx context.Context, peer string) error) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:          "http://n1",
		Peers:         []string{"http://n1", "http://n2", "http://n3"},
		VNodes:        32,
		Replication:   1,
		ProbeInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetProbe(probe)
	t.Cleanup(c.Close)
	return c
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{Self: "http://x", Peers: []string{"http://a"}}); err == nil {
		t.Fatal("self outside peer set accepted")
	}
	if _, err := New(Config{Peers: []string{"http://a"}}); err == nil {
		t.Fatal("empty self accepted")
	}
	c, err := New(Config{Self: "http://a", Peers: []string{"http://a", "http://b"}, Replication: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The configured factor survives New (a node bootstrapping alone keeps
	// it for when the ring grows); each walk clamps to the live peer count.
	if c.Replication() != 99 {
		t.Fatalf("replication = %d, want 99", c.Replication())
	}
	for _, k := range testKeys(20) {
		if got := c.Replicas(k); len(got) != 2 {
			t.Fatalf("Replicas(%s) returned %d peers from a 2-peer ring, want 2", k[:8], len(got))
		}
	}
}

// TestClusterIsReplicaAllocatesNothing: the proxy decision on every
// request walks the ring without allocating, and agrees with Replicas.
func TestClusterIsReplicaAllocatesNothing(t *testing.T) {
	peers := peerSet(5)
	c, err := New(Config{Self: peers[2], Peers: peers, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := testKeys(64)
	for _, k := range keys {
		want := false
		for _, p := range c.Replicas(k) {
			want = want || p == peers[2]
		}
		if got := c.IsReplica(k); got != want {
			t.Fatalf("IsReplica(%s) = %v, want %v", k[:8], got, want)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		c.IsReplica(keys[i%len(keys)])
		i++
	}); n != 0 {
		t.Fatalf("IsReplica allocates %v times per call, want 0", n)
	}
}

func TestClusterHealthMarking(t *testing.T) {
	c := newTestCluster(t, nil)
	if !c.Up("http://n2") || !c.Up("http://n1") {
		t.Fatal("peers must start up")
	}
	if c.Up("http://stranger") {
		t.Fatal("unknown peer reported up")
	}
	c.MarkDown("http://n2")
	if c.Up("http://n2") {
		t.Fatal("n2 still up after MarkDown")
	}
	c.MarkDown("http://n1") // self: must stay up
	if !c.Up("http://n1") {
		t.Fatal("self went down")
	}
	c.MarkUp("http://n2")
	if !c.Up("http://n2") {
		t.Fatal("n2 still down after MarkUp")
	}
	st := c.Status()
	if len(st) != 3 || !st[0].Self || st[0].URL != "http://n1" {
		t.Fatalf("status = %+v", st)
	}

	// The peer-up callback fires once per down-to-up flip, and never on an
	// up-to-up mark or a down mark.
	var ups []string
	c.OnPeerUp(func(peer string) { ups = append(ups, peer) })
	c.MarkUp("http://n2") // already up
	c.MarkDown("http://n3")
	c.MarkDown("http://n3")
	if len(ups) != 0 {
		t.Fatalf("peer-up callback fired on an up-to-up or a down mark: %v", ups)
	}
	c.MarkUp("http://n3")
	c.MarkUp("http://n3")
	if len(ups) != 1 || ups[0] != "http://n3" {
		t.Fatalf("after one down-to-up flip the callback saw %v, want [http://n3]", ups)
	}
}

func TestClusterProbeLoop(t *testing.T) {
	var mu sync.Mutex
	dead := map[string]bool{"http://n3": true}
	probe := func(ctx context.Context, peer string) error {
		mu.Lock()
		defer mu.Unlock()
		if dead[peer] {
			return errors.New("unreachable")
		}
		return nil
	}
	c := newTestCluster(t, probe)
	c.ProbeNow(context.Background())
	if c.Up("http://n3") || !c.Up("http://n2") {
		t.Fatalf("probe pass: n2=%v n3=%v, want up/down", c.Up("http://n2"), c.Up("http://n3"))
	}
	// The background loop notices recovery.
	c.StartProbes()
	mu.Lock()
	dead["http://n3"] = false
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for !c.Up("http://n3") {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never marked n3 up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.Close()
	c.Close() // idempotent
}

// TestClusterOwnershipAgreement: every node of the same static config
// computes identical ownership — the property that makes internode proxying
// loop-free without any coordination protocol.
func TestClusterOwnershipAgreement(t *testing.T) {
	peers := []string{"http://n1", "http://n2", "http://n3"}
	views := make([]*Cluster, len(peers))
	for i, self := range peers {
		c, err := New(Config{Self: self, Peers: peers, VNodes: 32, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		views[i] = c
	}
	selfReplicas := 0
	for _, k := range testKeys(300) {
		owner := views[0].Owner(k)
		for _, v := range views[1:] {
			if v.Owner(k) != owner {
				t.Fatalf("ring views disagree on %s: %s vs %s", k[:8], owner, v.Owner(k))
			}
		}
		for i, v := range views {
			want := false
			for _, r := range views[0].Replicas(k) {
				if r == peers[i] {
					want = true
				}
			}
			if got := v.IsReplica(k); got != want {
				t.Fatalf("node %s IsReplica(%s) = %v, want %v", peers[i], k[:8], got, want)
			}
			if v.IsReplica(k) {
				selfReplicas++
			}
		}
	}
	// RF=2 over 3 nodes: each key has exactly 2 replicas cluster-wide.
	if selfReplicas != 2*300 {
		t.Fatalf("replica census = %d, want %d", selfReplicas, 2*300)
	}
}

// TestClusterHealthCancelledProbe: a probe pass cut short by its context,
// as when the loop stops, marks no remote down: the remote did not fail.
func TestClusterHealthCancelledProbe(t *testing.T) {
	h := NewHealth("test", time.Hour, nil)
	h.Track("http://a", "http://b")
	ctx, cancel := context.WithCancel(context.Background())
	h.SetProbe(func(pctx context.Context, remote string) error {
		cancel()
		<-pctx.Done()
		return pctx.Err()
	})
	h.ProbeNow(ctx)
	if !h.Up("http://a") || !h.Up("http://b") {
		t.Fatalf("cancelled probe pass marked a remote down: a=%v b=%v", h.Up("http://a"), h.Up("http://b"))
	}
	// Marks on a remote the table does not track are ignored.
	h.MarkUp("http://stranger")
	if h.Up("http://stranger") {
		t.Fatal("untracked remote reported up")
	}
}
