package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func bootMember(t *testing.T, self string, peers []string) *Cluster {
	t.Helper()
	c, err := New(Config{Self: self, Peers: peers, VNodes: 32, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestMembershipUpdate(t *testing.T) {
	c := bootMember(t, "http://a", []string{"http://a", "http://b"})
	if c.Epoch() != 0 {
		t.Fatalf("boot epoch = %d, want 0", c.Epoch())
	}

	m, err := c.Update(ActionJoin, "http://c")
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || !m.Contains("http://c") {
		t.Fatalf("join produced %+v, want epoch 1 including c", m)
	}
	if !c.Member("http://c") || c.Epoch() != 1 {
		t.Fatal("join not adopted locally")
	}

	// Joining an existing member is a no-op: no epoch burned.
	m, err = c.Update(ActionJoin, "http://c")
	if err != nil || m.Epoch != 1 {
		t.Fatalf("idempotent join: m=%+v err=%v", m, err)
	}

	m, err = c.Update(ActionRemove, "http://b")
	if err != nil || m.Epoch != 2 || m.Contains("http://b") {
		t.Fatalf("remove produced %+v err=%v", m, err)
	}
	if c.Member("http://b") {
		t.Fatal("removed peer still a member")
	}
	// Removing a non-member is a no-op.
	if m, err = c.Update(ActionRemove, "http://b"); err != nil || m.Epoch != 2 {
		t.Fatalf("idempotent remove: m=%+v err=%v", m, err)
	}

	// Decommissioning self flips the node into drain mode; it keeps
	// serving but is no longer a routing target.
	if c.Left() {
		t.Fatal("Left() before decommission")
	}
	if _, err := c.Update(ActionDecommission, "http://a"); err != nil {
		t.Fatal(err)
	}
	if !c.Left() || c.Member("http://a") {
		t.Fatal("self decommission did not enter drain mode")
	}

	// Emptying the cluster is refused.
	if _, err := c.Update(ActionRemove, "http://c"); err == nil {
		t.Fatal("emptying the cluster accepted")
	}
	if _, err := c.Update("explode", "http://c"); err == nil {
		t.Fatal("unknown action accepted")
	}
	if _, err := c.Update(ActionJoin, ""); err == nil {
		t.Fatal("empty peer accepted")
	}
}

func TestMembershipAdoptOrdering(t *testing.T) {
	c := bootMember(t, "http://a", []string{"http://a", "http://b"})

	// Stale epoch: rejected.
	if _, err := c.Update(ActionJoin, "http://c"); err != nil {
		t.Fatal(err)
	}
	changed, err := c.Adopt(Membership{Epoch: 0, Peers: []string{"http://a"}})
	if err != nil || changed {
		t.Fatalf("stale adopt: changed=%v err=%v", changed, err)
	}
	// Same epoch, same peers: no-op.
	changed, err = c.Adopt(c.Membership())
	if err != nil || changed {
		t.Fatalf("identical adopt: changed=%v err=%v", changed, err)
	}
	// Same epoch, lexically greater canonical list: wins (the deterministic
	// tie-break for concurrent same-epoch updates).
	cur := c.Membership()
	rival := Membership{Epoch: cur.Epoch, Peers: append(append([]string(nil), cur.Peers...), "http://z")}
	changed, err = c.Adopt(rival)
	if err != nil || !changed {
		t.Fatalf("greater same-epoch adopt: changed=%v err=%v", changed, err)
	}
	// ...and its lexically smaller rival now loses.
	changed, err = c.Adopt(cur)
	if err != nil || changed {
		t.Fatalf("smaller same-epoch adopt: changed=%v err=%v", changed, err)
	}
	// Strictly higher epoch always wins, even shrinking.
	changed, err = c.Adopt(Membership{Epoch: cur.Epoch + 5, Peers: []string{"http://a", "http://b"}})
	if err != nil || !changed || c.Epoch() != cur.Epoch+5 {
		t.Fatalf("higher-epoch adopt: changed=%v err=%v epoch=%d", changed, err, c.Epoch())
	}
	// Garbage memberships are rejected without touching the view.
	if _, err := c.Adopt(Membership{Epoch: 99, Peers: nil}); err == nil {
		t.Fatal("empty membership adopted")
	}
	if c.Epoch() != cur.Epoch+5 {
		t.Fatal("failed adopt moved the epoch")
	}
}

func TestMembershipOnChangeAndHealthCarryover(t *testing.T) {
	c := bootMember(t, "http://a", []string{"http://a", "http://b"})
	c.MarkDown("http://b")

	var got []Membership
	c.OnChange(func(m Membership) { got = append(got, m) })
	if _, err := c.Update(ActionJoin, "http://c"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("onChange fired %d times, got %+v", len(got), got)
	}
	// Health carried over for retained peers; new peers start up.
	if c.Up("http://b") {
		t.Fatal("b's down state lost across adoption")
	}
	if !c.Up("http://c") {
		t.Fatal("new peer did not start up")
	}
	// A removed-but-alive peer stays reachable (probe/push target) so a
	// draining node can still be pushed to until the operator stops it.
	c.MarkUp("http://b")
	if _, err := c.Update(ActionDecommission, "http://b"); err != nil {
		t.Fatal(err)
	}
	if !c.Up("http://b") {
		t.Fatal("decommissioned peer became unreachable for the drain")
	}
	if c.Member("http://b") {
		t.Fatal("decommissioned peer still a member")
	}
}

func TestMembershipPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster", "membership.json")
	if _, ok := LoadMembership(path); ok {
		t.Fatal("missing file loaded")
	}
	m := Membership{Epoch: 7, Peers: []string{"http://a", "http://b"}}
	if err := SaveMembership(path, m); err != nil {
		t.Fatal(err)
	}
	got, ok := LoadMembership(path)
	if !ok || got.Epoch != 7 || got.canonical() != m.canonical() {
		t.Fatalf("round trip = %+v ok=%v", got, ok)
	}
	// Overwrite is atomic and wins.
	m.Epoch = 8
	if err := SaveMembership(path, m); err != nil {
		t.Fatal(err)
	}
	if got, _ := LoadMembership(path); got.Epoch != 8 {
		t.Fatalf("overwrite epoch = %d, want 8", got.Epoch)
	}
}

// TestMembershipMinimalRemap: the consistent-hashing contract across epoch
// transitions — a join steals only the keys the new peer now owns, a leave
// re-homes only the departed peer's keys, and a join+leave touches only the
// union. Every other key keeps its exact replica set.
func TestMembershipMinimalRemap(t *testing.T) {
	base := []string{"http://n1", "http://n2", "http://n3", "http://n4"}
	keys := testKeys(600)
	rf := 2

	replicaSets := func(peers []string) map[string][]string {
		r, err := NewRing(peers, 64)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]string, len(keys))
		for _, k := range keys {
			out[k] = r.Replicas(k, rf)
		}
		return out
	}
	same := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	contains := func(set []string, p string) bool {
		for _, s := range set {
			if s == p {
				return true
			}
		}
		return false
	}

	before := replicaSets(base)
	cases := []struct {
		name  string
		peers []string
		// A remapped key must involve one of these peers in its old or new
		// replica set; anything else is collateral reshuffling.
		churned []string
	}{
		{"join", append(append([]string(nil), base...), "http://n5"), []string{"http://n5"}},
		{"leave", []string{"http://n1", "http://n2", "http://n3"}, []string{"http://n4"}},
		{"join+leave", []string{"http://n1", "http://n2", "http://n3", "http://n5"}, []string{"http://n4", "http://n5"}},
	}
	for _, tc := range cases {
		after := replicaSets(tc.peers)
		moved := 0
		for _, k := range keys {
			if same(before[k], after[k]) {
				continue
			}
			moved++
			involved := false
			for _, p := range tc.churned {
				if contains(before[k], p) || contains(after[k], p) {
					involved = true
				}
			}
			if !involved {
				t.Fatalf("%s: key %s remapped %v -> %v without touching churned peers %v",
					tc.name, k[:8], before[k], after[k], tc.churned)
			}
		}
		if moved == 0 {
			t.Fatalf("%s: no keys remapped — churn had no effect?", tc.name)
		}
		// A single-node change over 4-5 peers should move roughly its share,
		// not the whole space.
		if moved > len(keys)*2*len(tc.churned)/(len(base)+1)+len(keys)/5 {
			t.Fatalf("%s: %d/%d keys remapped — far above the minimal-remap share", tc.name, moved, len(keys))
		}
	}
}

// FuzzMembership feeds arbitrary membership JSON, as a peer's gossip push
// or pull or a persisted membership file delivers it, to a fresh Cluster.
// Neither decoding nor Adopt may panic, and a membership the node adopted
// must come back unchanged through SaveMembership and LoadMembership.
func FuzzMembership(f *testing.F) {
	for _, m := range []Membership{
		{Epoch: 1, Peers: []string{"http://a", "http://b", "http://c"}},
		{Epoch: 7, Peers: []string{"http://b"}},
		{Epoch: 2, Peers: []string{"http://c", "http://a", "http://c"}},
		{Epoch: 3, Peers: []string{"http://a", ""}},
		{Epoch: 0, Peers: []string{}},
	} {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		raw := filepath.Join(dir, "raw.json")
		if err := os.WriteFile(raw, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var m Membership
		decErr := json.Unmarshal(data, &m)
		loaded, ok := LoadMembership(raw)
		if ok != (decErr == nil && len(m.Peers) > 0) || (ok && !reflect.DeepEqual(loaded, m)) {
			t.Fatalf("LoadMembership = %+v, %v; decoding gave %+v, %v", loaded, ok, m, decErr)
		}
		if decErr != nil {
			return
		}
		c, err := New(Config{Self: "http://a", Peers: []string{"http://a", "http://b"}, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if changed, err := c.Adopt(m); err != nil || !changed {
			return
		}
		adopted := c.Membership()
		if adopted.Epoch != m.Epoch || adopted.canonical() != m.canonical() {
			t.Fatalf("adopted %+v from %+v", adopted, m)
		}
		path := filepath.Join(dir, "membership.json")
		if err := SaveMembership(path, adopted); err != nil {
			t.Fatal(err)
		}
		if back, ok := LoadMembership(path); !ok || !reflect.DeepEqual(back, adopted) {
			t.Fatalf("round trip of %+v = %+v, %v", adopted, back, ok)
		}
	})
}
