package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netcache"
	"netcache/internal/cluster"
)

// echoRun is a RunFunc that simulates nothing: its Result carries the
// spec's app and sampling seed, so a reply shows which spec ran.
func echoRun(n *atomic.Int32) func(context.Context, netcache.RunSpec) (netcache.Result, error) {
	return func(_ context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		n.Add(1)
		res := netcache.Result{App: spec.App}
		if spec.Sampling != nil {
			res.Reads = spec.Sampling.Seed
		}
		return res, nil
	}
}

// newServer builds a Server that is driven in process, through Handler.
func newServer(t *testing.T, cfg Config) *Server {
	srv := New(cfg)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

// post sends body to h's /v1/run in process.
func post(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
	return rec
}

// parsedSpecs reads netcached_parsed_specs_total from h's /metrics.
func parsedSpecs(t *testing.T, h http.Handler) (hits, misses int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	return metricValue(t, text, `netcached_parsed_specs_total{result="hit"}`),
		metricValue(t, text, `netcached_parsed_specs_total{result="miss"}`)
}

// remembered is how many bodies srv's table holds.
func remembered(srv *Server) int {
	srv.specs.mu.RLock()
	defer srv.specs.mu.RUnlock()
	return len(srv.specs.entries)
}

// TestSpecTableRepeatHits: a second identical body is served from the
// table, byte-identically, and /metrics counts one miss and one hit.
func TestSpecTableRepeatHits(t *testing.T) {
	var sims atomic.Int32
	srv, c := start(t, Config{Workers: 1, RunFunc: echoRun(&sims)})
	spec := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05}
	first, err := c.RunRaw(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.RunRaw(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("replies differ:\n%s\n%s", first, second)
	}
	if hits, misses := parsedSpecs(t, srv.Handler()); hits != 1 || misses != 1 {
		t.Fatalf("parsed specs: %d hits, %d misses; want 1 and 1", hits, misses)
	}
	if n := remembered(srv); n != 1 {
		t.Fatalf("table holds %d bodies, want 1", n)
	}
}

// TestSpecTableInvalidNotRemembered: a body that does not decode, or
// decodes to a spec that cannot run, gets its 400 on every request and is
// never remembered.
func TestSpecTableInvalidNotRemembered(t *testing.T) {
	var sims atomic.Int32
	srv := newServer(t, Config{Workers: 1, RunFunc: echoRun(&sims)})
	h := srv.Handler()
	for _, body := range []string{
		`{"App":"sor","System":"netcache","Config":{"Procs":3}}`,
		`{"App":"nosuchapp"}`,
		`{"App":"sor","Sampling":{"Mode":"sometimes"}}`,
		`{"App":`,
	} {
		for i := 0; i < 3; i++ {
			if rec := post(h, body); rec.Code != http.StatusBadRequest {
				t.Fatalf("%s (try %d): status %d, want 400: %s", body, i, rec.Code, rec.Body)
			}
		}
	}
	if hits, misses := parsedSpecs(t, h); hits != 0 || misses != 12 {
		t.Fatalf("parsed specs: %d hits, %d misses; want 0 and 12", hits, misses)
	}
	if n := remembered(srv); n != 0 || sims.Load() != 0 {
		t.Fatalf("table holds %d bodies after %d simulations, want 0 and 0", n, sims.Load())
	}
}

// TestSpecTableBounded: more distinct bodies than the table's bound are
// all served, and the table never holds more than its bound.
func TestSpecTableBounded(t *testing.T) {
	var sims atomic.Int32
	srv := newServer(t, Config{Workers: 1, RunFunc: echoRun(&sims)})
	h := srv.Handler()
	for i := 0; i < specTableEntries+100; i++ {
		// Distinct bodies, one spec: spaces before the closing brace.
		body := `{"App":"sor","System":"netcache","Scale":0.05` + strings.Repeat(" ", i) + `}`
		if rec := post(h, body); rec.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if n := remembered(srv); n > specTableEntries {
			t.Fatalf("after %d bodies the table holds %d, bound %d", i+1, n, specTableEntries)
		}
	}
	if n := remembered(srv); n != specTableEntries {
		t.Fatalf("table holds %d bodies, want its bound %d", n, specTableEntries)
	}
}

// TestSpecTableLongBodyNotRemembered: a body longer than the table's
// per-body bound is served on every request but never remembered.
func TestSpecTableLongBodyNotRemembered(t *testing.T) {
	var sims atomic.Int32
	srv := newServer(t, Config{Workers: 1, RunFunc: echoRun(&sims)})
	h := srv.Handler()
	body := `{"App":"sor","System":"netcache","Scale":0.05}` + strings.Repeat(" ", specTableMaxBody)
	for i := 0; i < 2; i++ {
		if rec := post(h, body); rec.Code != http.StatusOK {
			t.Fatalf("try %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if hits, misses := parsedSpecs(t, h); hits != 0 || misses != 2 {
		t.Fatalf("parsed specs: %d hits, %d misses; want 0 and 2", hits, misses)
	}
	if n := remembered(srv); n != 0 {
		t.Fatalf("table holds %d bodies, want 0", n)
	}
}

// TestRunBodyOverCap: a body over its endpoint's cap — 1 MiB for /v1/run
// and /v1/cluster/membership, 16 MiB for /v1/batch — is refused with 413,
// as the transfer endpoints refuse theirs, even if a whole request
// precedes the cap; one of exactly the cap is served.
func TestRunBodyOverCap(t *testing.T) {
	var sims atomic.Int32
	h := newServer(t, Config{Workers: 1, RunFunc: echoRun(&sims)}).Handler()
	// Membership requests need a ring: one node, never dialled.
	const self = "http://127.0.0.1:1"
	cl, err := cluster.New(cluster.Config{Self: self, Peers: []string{self}})
	if err != nil {
		t.Fatal(err)
	}
	clustered := newServer(t, Config{Workers: 1, RunFunc: echoRun(&sims), Cluster: cl}).Handler()
	m := cl.Membership()
	adopt, err := json.Marshal(MembershipRequest{Action: membershipActionAdopt, Membership: &m})
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"App":"sor","System":"netcache","Scale":0.05}`
	for _, tc := range []struct {
		h    http.Handler
		path string
		max  int
		body string
	}{
		{h, "/v1/run", maxRunBytes, spec},
		{h, "/v1/batch", maxBatchBytes, `{"specs":[` + spec + `]}`},
		{clustered, "/v1/cluster/membership", maxMembershipBytes, string(adopt)},
	} {
		send := func(body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(body)))
			return rec
		}
		if rec := send(tc.body + strings.Repeat(" ", tc.max-len(tc.body))); rec.Code != http.StatusOK {
			t.Fatalf("%s: body of exactly %d bytes: status %d: %s", tc.path, tc.max, rec.Code, rec.Body)
		}
		if rec := send(tc.body + strings.Repeat(" ", tc.max)); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: body over %d bytes: status %d, want 413: %s", tc.path, tc.max, rec.Code, rec.Body)
		}
	}
}

// TestSpecTableConcurrentSampled: concurrent identical requests, sampled
// specs among them, each get their own spec's result. The RunFunc
// overwrites the sampling seed of the spec it is handed, so a Sampling the
// table shared between requests would show in a later reply, and to the
// race detector.
func TestSpecTableConcurrentSampled(t *testing.T) {
	var sims atomic.Int32
	run := echoRun(&sims)
	srv := newServer(t, Config{Workers: 2, RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		res, err := run(ctx, spec)
		if spec.Sampling != nil {
			spec.Sampling.Seed = 0
		}
		return res, err
	}})
	h := srv.Handler()
	specs := []netcache.RunSpec{
		{App: "sor", System: netcache.SystemNetCache, Scale: 0.05},
		{App: "sor", System: netcache.SystemNetCache, Scale: 0.05, Sampling: &netcache.Sampling{Mode: netcache.SampleStratified, Seed: 7}},
		{App: "fft", System: netcache.SystemDMONI, Scale: 0.06, Sampling: &netcache.Sampling{Mode: netcache.SampleStratified, Seed: 9}},
	}
	bodies := make([]string, len(specs))
	for i, spec := range specs {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(b)
	}
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(specs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, spec := range specs {
					rec := post(h, bodies[i])
					var res netcache.Result
					if err := json.Unmarshal(rec.Body.Bytes(), &res); rec.Code != http.StatusOK || err != nil {
						errs <- fmt.Errorf("spec %d: status %d, %v: %s", i, rec.Code, err, rec.Body)
						continue
					}
					var seed uint64
					if spec.Sampling != nil {
						seed = spec.Sampling.Seed
					}
					if res.App != spec.App || res.Reads != seed {
						errs <- fmt.Errorf("spec %d answered with %s, seed %d; want %s, seed %d", i, res.App, res.Reads, spec.App, seed)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits, misses := parsedSpecs(t, h)
	if hits+misses != workers*rounds*int64(len(specs)) || hits < misses {
		t.Fatalf("parsed specs: %d hits, %d misses over %d requests", hits, misses, workers*rounds*len(specs))
	}
}
