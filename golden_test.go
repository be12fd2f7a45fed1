package netcache_test

// The golden-determinism guard: every Table 4 application on every Figure 6
// system must produce a byte-identical canonical Result across engine
// changes. The committed testdata hashes were produced by the pre-optimization
// scheduler; any hot-path work in internal/sim (event arena, runnable-min
// structure, baton handoff) must reproduce them exactly before its
// results table can be trusted.
//
// Regenerate (only when a change is *supposed* to alter simulated timelines,
// which should be called out loudly in the PR):
//
//	go test -run TestGoldenDeterminism -args -update-golden

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"netcache"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engine_golden.json from the current engine")

// goldenScale is the test-scale input size used for the determinism corpus.
const goldenScale = 0.06

const goldenPath = "testdata/engine_golden.json"

type goldenEntry struct {
	App    string `json:"app"`
	System string `json:"system"`
	// Key is the content address of the spec (RunSpec.Key): hex SHA-256 of
	// the canonical spec JSON.
	Key string `json:"key"`
	// Result is the hex SHA-256 of the canonical result JSON (json.Marshal
	// of the full Result, including Raw per-node stats).
	Result string `json:"result_sha256"`
}

func computeGolden(t *testing.T) []goldenEntry {
	t.Helper()
	var specs []netcache.RunSpec
	for _, app := range netcache.Apps() {
		for _, sys := range netcache.Systems {
			specs = append(specs, netcache.RunSpec{
				App: app, System: sys, Scale: goldenScale, Verify: true,
			})
		}
	}
	results := netcache.RunBatch(context.Background(), netcache.BatchOptions{}, specs)
	entries := make([]goldenEntry, 0, len(results))
	for _, br := range results {
		if br.Err != nil {
			t.Fatalf("%s on %s: %v", br.Spec.App, br.Spec.System, br.Err)
		}
		key, err := br.Spec.Key()
		if err != nil {
			t.Fatalf("%s on %s: key: %v", br.Spec.App, br.Spec.System, err)
		}
		b, err := json.Marshal(br.Result)
		if err != nil {
			t.Fatalf("%s on %s: marshal: %v", br.Spec.App, br.Spec.System, err)
		}
		sum := sha256.Sum256(b)
		entries = append(entries, goldenEntry{
			App:    br.Spec.App,
			System: br.Spec.System.String(),
			Key:    key,
			Result: hex.EncodeToString(sum[:]),
		})
	}
	return entries
}

// TestGoldenDeterminism runs every app at test scale on all four systems and
// checks the (spec key, canonical result JSON hash) pairs against the
// committed corpus.
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12x4 corpus; skipped with -short")
	}
	got := computeGolden(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", goldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden corpus (run with -update-golden to generate): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden corpus: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d entries, engine produced %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.App != g.App || w.System != g.System {
			t.Fatalf("entry %d: corpus is %s/%s, engine produced %s/%s (app or system list changed?)",
				i, w.App, w.System, g.App, g.System)
		}
		if w.Key != g.Key {
			t.Errorf("%s on %s: spec key drifted: %s -> %s (canonical spec encoding changed)",
				w.App, w.System, w.Key, g.Key)
		}
		if w.Result != g.Result {
			t.Errorf("%s on %s: result hash diverged from the golden engine: %s -> %s",
				w.App, w.System, w.Result, g.Result)
		}
	}
}
