package netcache_test

// The golden-determinism guard: every Table 4 application on every Figure 6
// system must produce a byte-identical canonical Result across engine
// changes. The committed testdata hashes were produced by the pre-optimization
// scheduler; any hot-path work in internal/sim (event arena, runnable-min
// structure, baton handoff) must reproduce them exactly before its
// results table can be trusted.
//
// TestSampledGolden pins the same (key, result hash) pairs for sampled runs,
// whose functional fast-forward the full corpus never executes.
//
// Regenerate (only when a change is *supposed* to alter simulated timelines,
// which should be called out loudly in the PR):
//
//	go test -run 'TestGoldenDeterminism|TestSampledGolden' -args -update-golden

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

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden corpora from the current engine")

// goldenScale is the test-scale input size used for the determinism corpus.
const goldenScale = 0.06

const goldenPath = "testdata/engine_golden.json"

const sampledGoldenPath = "testdata/sampled_golden.json"

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
	return runGolden(t, specs)
}

// runGolden runs specs and records each one's (key, result hash) entry.
func runGolden(t *testing.T, specs []netcache.RunSpec) []goldenEntry {
	t.Helper()
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
	checkGolden(t, goldenPath, computeGolden(t))
}

// checkGolden compares got against the corpus at path, or rewrites the
// corpus under -update-golden.
func checkGolden(t *testing.T, path string, got []goldenEntry) {
	t.Helper()
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
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

// sampledGoldenScale is the sampled corpus's input size, the accuracy
// harness's: long enough that every run completes at least one measured
// interval under the corpus plan, and every run on the four systems that
// take rounds executes some.
const sampledGoldenScale = 0.25

// TestSampledGolden runs every app on all five systems under the validated
// corpus plan (corpusSampling) and checks the (spec key, result hash) pairs
// against the committed sampled corpus. Ring-bearing NetCache never enters a
// parallel round, so its entries pin the sequential fast-forward; the other
// four systems run rounds as well.
func TestSampledGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("12x5 sampled corpus; skipped with -short")
	}
	systems := []netcache.System{
		netcache.SystemNetCache, netcache.SystemOptNet, netcache.SystemLambdaNet,
		netcache.SystemDMONU, netcache.SystemDMONI,
	}
	var specs []netcache.RunSpec
	for _, app := range netcache.Apps() {
		for _, sys := range systems {
			specs = append(specs, netcache.RunSpec{
				App: app, System: sys, Scale: sampledGoldenScale, Verify: true,
				Sampling: corpusSampling(),
			})
		}
	}
	checkGolden(t, sampledGoldenPath, runGolden(t, specs))
}
