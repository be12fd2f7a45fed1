package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netcache"
	"netcache/internal/faults"
	"netcache/internal/store"
)

// TestChaosSweep is the resilience acceptance test: a full 12-app x
// 4-system sweep driven through a stack with seeded fault injection at
// every layer — >=10% store I/O errors plus corruption and short writes, 5%
// HTTP errors plus dropped connections and latency, and injected panics in
// both the batch worker pool and the simulation path — must complete
// through the retrying client with results byte-identical to a fault-free
// run, and the stack must converge to a clean, healthy state once the
// faults stop.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep runs the full figure corpus; skipped in -short")
	}
	ctx := context.Background()
	var specs []netcache.RunSpec
	for _, app := range netcache.Apps() {
		for _, sys := range netcache.Systems {
			specs = append(specs, netcache.RunSpec{App: app, System: sys, Scale: 0.05})
		}
	}

	// Fault-free baseline: the byte-exact JSON the service must reproduce.
	baseline := make([][]byte, len(specs))
	for i, br := range netcache.RunBatch(ctx, netcache.BatchOptions{}, specs) {
		if br.Err != nil {
			t.Fatalf("baseline %s/%s: %v", br.Spec.App, br.Spec.System, br.Err)
		}
		b, err := json.Marshal(br.Result)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = b
	}

	inj := faults.New(20240806)
	inj.Set(faults.StoreRead, 0.10)
	inj.Set(faults.StoreCorrupt, 0.10)
	inj.Set(faults.StoreWrite, 0.10)
	inj.Set(faults.StoreShortWrite, 0.05)
	inj.Set(faults.SegmentRead, 0.10)
	inj.Set(faults.SegmentCorrupt, 0.10)
	inj.Set(faults.SegmentWrite, 0.10)
	inj.Set(faults.SegmentTorn, 0.10)
	inj.Set(faults.HTTPError, 0.05)
	inj.Set(faults.HTTPDisconnect, 0.03)
	inj.Set(faults.HTTPLatency, 0.05)
	inj.Set(faults.RunnerPanic, 0.15)
	inj.Set(faults.RunnerStall, 0.10)
	const simPanic = "sim.panic" // fired inside RunFunc, recovered by lead
	inj.Set(simPanic, 0.10)

	// ColdAge of a nanosecond makes every stored result a migration victim,
	// so the background compactor constantly moves entries into cold
	// segments (and Gets promote them back) while segment faults tear
	// writes and corrupt reads mid-compaction.
	st, err := store.OpenOptions(t.TempDir(), store.Options{
		ColdAge: time.Nanosecond,
		FS:      store.NewFaultFS(inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	st.StartCompactor(2 * time.Millisecond)
	defer st.Close()
	_, c := start(t, Config{
		Store:         st,
		Workers:       4,
		QueueDepth:    256,
		Inject:        inj,
		DegradedAfter: 3,
		DegradedProbe: time.Millisecond,
		RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
			if inj.Fire(simPanic) {
				panic("chaos: injected simulation panic")
			}
			return netcache.RunContext(ctx, spec)
		},
	})
	c.Retry = RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 9}

	entries, err := c.Batch(ctx, specs)
	if err != nil {
		t.Fatalf("chaos sweep failed outright: %v", err)
	}
	for i, e := range entries {
		if e.Status != 200 {
			t.Fatalf("spec %d (%s/%s) = %d %s after retries", i, specs[i].App, specs[i].System, e.Status, e.Error)
		}
		if !bytes.Equal(e.Result, baseline[i]) {
			t.Fatalf("spec %d (%s/%s): chaos-run bytes differ from fault-free baseline", i, specs[i].App, specs[i].System)
		}
	}

	// Individual requests through the same storm: the batch above is a
	// single POST, so per-request HTTP chaos (errors, disconnects,
	// latency) is exercised here, one wire round-trip per spec.
	for i, s := range specs {
		raw, err := c.RunRaw(ctx, s)
		if err != nil {
			t.Fatalf("single %s/%s failed after retries: %v", s.App, s.System, err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("single %s/%s: bytes differ from fault-free baseline", s.App, s.System)
		}
	}

	// The storm must actually have stormed, or the test proves nothing —
	// including the segment sites, which only fire if compaction really ran
	// mid-sweep.
	stats := inj.Stats()
	for _, site := range []string{
		faults.StoreRead, faults.StoreWrite, faults.HTTPError, faults.RunnerPanic,
		faults.SegmentWrite, faults.SegmentTorn, faults.SegmentRead,
	} {
		if stats[site].Fired == 0 {
			t.Fatalf("site %s never fired (calls=%d) — chaos too quiet", site, stats[site].Calls)
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `netcached_chaos_injected_total{site="http.error"}`) {
		t.Fatal("chaos injection counters missing from /metrics")
	}

	// Faults stop: one more sweep must be identical and cheap, and the
	// server must report a healthy state (a fresh spec gives a degraded
	// server the successful write it needs to recover).
	inj.Disable()
	entries, err = c.Batch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e.Status != 200 || !bytes.Equal(e.Result, baseline[i]) {
			t.Fatalf("post-chaos spec %d (%s/%s) drifted: status %d", i, specs[i].App, specs[i].System, e.Status)
		}
	}
	if _, err := c.RunRaw(ctx, netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.07}); err != nil {
		t.Fatal(err)
	}
	state, err := c.Health(ctx)
	if err != nil || state != "ok" {
		t.Fatalf("post-chaos health = %q, %v; want ok", state, err)
	}

	// And the surviving store content is clean: a fault-free compaction
	// pass completes, a scrub finds nothing, and /v1/stats shows a live
	// two-tier store whose entries flowed through the cold tier.
	st.Compact()
	if _, quarantined := st.Scrub(); quarantined != 0 {
		t.Fatalf("scrub quarantined %d entries after recovery", quarantined)
	}
	sr, err := c.StoreStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.HasStore || sr.Degraded {
		t.Fatalf("post-chaos /v1/stats = %+v", sr)
	}
	if sr.Store.Migrated == 0 || sr.Store.Compactions == 0 {
		t.Fatalf("compactor never moved anything during the sweep: %+v", sr.Store)
	}
	if sr.Store.Entries == 0 || sr.Store.HotEntries+sr.Store.ColdEntries != sr.Store.Entries {
		t.Fatalf("per-tier occupancy inconsistent: %+v", sr.Store)
	}
}

// TestChaosColdTierOnlyFailure: when only the cold tier fails — every
// segment read and write erroring — the server must stay fully healthy,
// never degraded: hot writes still succeed, cold-resident results are
// recomputed and re-persisted hot, and every response stays correct.
func TestChaosColdTierOnlyFailure(t *testing.T) {
	ctx := context.Background()
	inj := faults.New(777) // sites armed only after the setup compaction
	st, err := store.OpenOptions(t.TempDir(), store.Options{
		ColdAge: time.Nanosecond,
		FS:      store.NewFaultFS(inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, c := start(t, Config{
		Store:         st,
		Workers:       2,
		DegradedAfter: 2,
		DegradedProbe: time.Millisecond,
		RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
			return netcache.Result{App: spec.App, Cycles: int64(spec.Scale * 1000)}, nil
		},
	})
	spec := func(scale float64) netcache.RunSpec {
		return netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: scale}
	}

	// Seed results and compact them into the cold tier, fault-free.
	baseline := make([][]byte, 5)
	for i := range baseline {
		raw, err := c.RunRaw(ctx, spec(0.1*float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = raw
	}
	time.Sleep(20 * time.Millisecond) // age past ColdAge
	if migrated, _ := st.Compact(); migrated == 0 {
		t.Fatalf("setup compaction moved nothing: %+v", st.Stats())
	}

	// The cold tier dies wholesale; the hot tier stays perfect.
	inj.Set(faults.SegmentRead, 1.0)
	inj.Set(faults.SegmentWrite, 1.0)
	for i := range baseline {
		raw, err := c.RunRaw(ctx, spec(0.1*float64(i+1)))
		if err != nil {
			t.Fatalf("request %d during cold-tier outage: %v", i, err)
		}
		if !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("request %d: bytes drifted during cold-tier outage", i)
		}
	}
	// Recomputes re-landed hot, so the hot writes all succeeded: the server
	// must not have counted them toward degraded mode.
	if srv.Degraded() {
		t.Fatal("cold-tier-only failure flipped the server degraded")
	}
	if state, _ := c.Health(ctx); state != "ok" {
		t.Fatalf("health = %q during cold-tier outage, want ok", state)
	}
	sr, err := c.StoreStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Store.HotEntries == 0 {
		t.Fatalf("recomputed results not resident hot: %+v", sr.Store)
	}
	// Compaction attempts during the outage fail without losing the hot
	// copies.
	time.Sleep(20 * time.Millisecond)
	st.Compact()
	if after := st.Stats(); after.HotEntries != sr.Store.HotEntries {
		t.Fatalf("failed compaction lost hot entries: %d -> %d", sr.Store.HotEntries, after.HotEntries)
	}
	// Cold tier recovers: the next pass migrates and everything still reads
	// back byte-identically.
	inj.Disable()
	time.Sleep(20 * time.Millisecond)
	if migrated, _ := st.Compact(); migrated == 0 {
		t.Fatalf("post-recovery compaction moved nothing: %+v", st.Stats())
	}
	for i := range baseline {
		raw, err := c.RunRaw(ctx, spec(0.1*float64(i+1)))
		if err != nil || !bytes.Equal(raw, baseline[i]) {
			t.Fatalf("request %d after recovery: %v", i, err)
		}
	}
}

// TestChaosDegradedRecovery: when every store write fails, the server flips
// to degraded (read-only) mode — still serving cached entries and
// recomputing the rest — and /healthz transitions degraded -> ok once store
// writes succeed again.
func TestChaosDegradedRecovery(t *testing.T) {
	ctx := context.Background()
	inj := faults.New(99) // no sites armed yet: the first Put must succeed
	st, err := store.OpenOptions(t.TempDir(), store.Options{FS: store.NewFaultFS(inj)})
	if err != nil {
		t.Fatal(err)
	}
	srv, c := start(t, Config{
		Store:         st,
		Workers:       2,
		DegradedAfter: 2,
		DegradedProbe: time.Millisecond,
		RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
			return netcache.Result{App: spec.App, Cycles: int64(spec.Scale * 1000)}, nil
		},
	})
	spec := func(scale float64) netcache.RunSpec {
		return netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: scale}
	}

	// Healthy: one result lands in the store.
	if _, err := c.RunRaw(ctx, spec(0.5)); err != nil {
		t.Fatal(err)
	}
	if state, _ := c.Health(ctx); state != "ok" {
		t.Fatalf("health = %q before faults", state)
	}

	// Store writes start failing; novel specs must still be served (200)
	// while consecutive put failures push the server into degraded mode.
	inj.Set(faults.StoreWrite, 1.0)
	for i := 0; i < 3; i++ {
		if _, err := c.RunRaw(ctx, spec(0.1*float64(i+1))); err != nil {
			t.Fatalf("request %d failed during store outage: %v", i, err)
		}
	}
	if !srv.Degraded() {
		t.Fatal("server not degraded after repeated store write failures")
	}
	if state, _ := c.Health(ctx); state != "degraded" {
		t.Fatalf("health = %q, want degraded", state)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if metricValue(t, text, "netcached_degraded") != 1 {
		t.Fatal("netcached_degraded gauge not set")
	}
	if metricValue(t, text, "netcached_store_put_failures_total") < 2 {
		t.Fatal("put failure counter too low")
	}

	// Degraded mode is read-only, not down: the previously cached entry is
	// still served from the store.
	before := metricValue(t, text, "netcached_store_served_total")
	if _, err := c.RunRaw(ctx, spec(0.5)); err != nil {
		t.Fatal(err)
	}
	text, _ = c.Metrics(ctx)
	if got := metricValue(t, text, "netcached_store_served_total"); got != before+1 {
		t.Fatalf("cached entry not served while degraded: %d -> %d", before, got)
	}

	// Writes recover: the next novel spec's probe Put succeeds and the
	// server transitions degraded -> ok.
	inj.Disable()
	time.Sleep(2 * time.Millisecond) // pass the probe interval
	if _, err := c.RunRaw(ctx, spec(0.9)); err != nil {
		t.Fatal(err)
	}
	if srv.Degraded() {
		t.Fatal("server still degraded after store recovery")
	}
	if state, _ := c.Health(ctx); state != "ok" {
		t.Fatalf("health = %q after recovery, want ok", state)
	}
}

// TestChaosHTTPOnly: pure wire-level chaos (errors, disconnects, latency)
// with a healthy backend — the retrying client must hide all of it. The
// client has no memory across requests, so every request gets its full
// attempt budget however many earlier ones failed.
func TestChaosHTTPOnly(t *testing.T) {
	ctx := context.Background()
	inj := faults.New(31)
	inj.Set(faults.HTTPError, 0.15)
	inj.Set(faults.HTTPDisconnect, 0.10)
	inj.Set(faults.HTTPLatency, 0.10)
	_, c := start(t, Config{
		Workers: 2,
		Inject:  inj,
		RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
			return netcache.Result{App: spec.App, Cycles: int64(spec.Scale * 10000)}, nil
		},
	})
	c.Retry = RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: 3}

	for i := 0; i < 40; i++ {
		res, err := c.Run(ctx, netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.01 * float64(i+1)})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if want := int64(float64(0.01*float64(i+1)) * 10000); res.Cycles != want {
			t.Fatalf("request %d: cycles %d, want %d", i, res.Cycles, want)
		}
	}
	if st := inj.Stats(); st[faults.HTTPError].Fired == 0 || st[faults.HTTPDisconnect].Fired == 0 {
		t.Fatalf("HTTP chaos never fired: %+v", st)
	}
}

// TestChaosRequestsCountedByRoute: an injected 500 is counted under the
// route that served it, not under its URL, so lookups of three different
// keys add one netcached_requests_total series between them.
func TestChaosRequestsCountedByRoute(t *testing.T) {
	inj := faults.New(7)
	inj.Set(faults.HTTPError, 1)
	h := New(Config{Workers: 1, Inject: inj}).Handler()
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/result/"+testKey(fmt.Sprint("chaos-", i)), nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("lookup %d: status %d, want an injected 500", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var series []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, `netcached_requests_total{path="/v1/result`) {
			series = append(series, line)
		}
	}
	if want := `netcached_requests_total{path="/v1/result",code="500"} 3`; len(series) != 1 || series[0] != want {
		t.Fatalf("request series %q; want exactly [%s]", series, want)
	}
}
