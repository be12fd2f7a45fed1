package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcache"
	"netcache/internal/store"
)

// start brings a server up on a loopback port — the same wiring cmd/netcached
// uses — and returns a client for it.
func start(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	c := NewClient("http://" + l.Addr().String())
	c.HTTPClient = &http.Client{}
	t.Cleanup(c.HTTPClient.CloseIdleConnections)
	return srv, c
}

// countingRun wraps the real simulator and counts executions.
func countingRun(n *atomic.Int32) func(context.Context, netcache.RunSpec) (netcache.Result, error) {
	return func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		n.Add(1)
		return netcache.RunContext(ctx, spec)
	}
}

func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("parsing %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// waitFor polls cond until it holds. The deadline is deliberately generous:
// under -race on a small machine the simulations themselves can monopolize
// the CPU for tens of seconds, and a passing condition returns immediately
// regardless — the deadline only bounds how long a genuine failure takes to
// report.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestEndToEndStoreHit is the headline acceptance path: POST the same spec
// twice; the second response must be byte-identical, served from the store
// (hit counter incremented), with no second simulation.
func TestEndToEndStoreHit(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sims atomic.Int32
	srv, c := start(t, Config{Store: st, Workers: 2, RunFunc: countingRun(&sims)})
	_ = srv
	ctx := context.Background()

	spec := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05}
	first, err := c.RunRaw(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.RunRaw(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("responses differ:\n%s\n%s", first, second)
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("%d simulations, want 1", n)
	}
	// A semantically equivalent spelling of the spec (explicit defaults)
	// must hit the same store entry.
	eq := spec
	eq.Config = netcache.DefaultConfig()
	third, err := c.RunRaw(ctx, eq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, third) {
		t.Fatal("equivalent spec missed the store")
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(t, text, "netcached_store_hits_total"); hits != 2 {
		t.Fatalf("store hits = %d, want 2", hits)
	}
	if served := metricValue(t, text, "netcached_store_served_total"); served != 2 {
		t.Fatalf("store served = %d, want 2", served)
	}
	// The first hit read the entry's file; the repeat was answered from
	// the bytes that read verified.
	if mem := metricValue(t, text, "netcached_store_hot_memory_hits_total"); mem != 1 {
		t.Fatalf("store hot memory hits = %d, want 1", mem)
	}
	// The first hit refreshed the LRU clock; the repeat does too only if
	// a second has passed since.
	if touches := metricValue(t, text, "netcached_store_lru_touches_total"); touches < 1 || touches > 2 {
		t.Fatalf("store LRU touches = %d, want 1 or 2", touches)
	}
	if simTotal := metricValue(t, text, "netcached_simulations_total"); simTotal != 1 {
		t.Fatalf("simulations_total = %d, want 1", simTotal)
	}
	// The result decodes and matches a direct library run bit-for-bit.
	res, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := netcache.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != direct.Cycles || res.Reads != direct.Reads {
		t.Fatalf("served result drifted from direct run: %d/%d vs %d/%d",
			res.Cycles, res.Reads, direct.Cycles, direct.Reads)
	}
}

// TestInvalidSpecRejected: a spec the simulator cannot run is a contract
// error. It gets a 400 before it is keyed or admitted, so nothing simulates,
// nothing is cached, and neither a retrying client nor a proxying peer
// repeats it (both retry a 500).
func TestInvalidSpecRejected(t *testing.T) {
	var sims atomic.Int32
	_, c := start(t, Config{Workers: 1, RunFunc: countingRun(&sims)})
	base := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05}
	badProcs, badMode, badPeriod := base, base, base
	badProcs.Config.Procs = 3
	badMode.Sampling = &netcache.Sampling{Mode: "sometimes"}
	badPeriod.Sampling = &netcache.Sampling{Mode: netcache.SampleStratified, Period: -1}
	for name, spec := range map[string]netcache.RunSpec{
		"Procs=3": badProcs, "Mode=sometimes": badMode, "Period=-1": badPeriod,
	} {
		_, err := c.RunRaw(context.Background(), spec)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("%s: error = %v, want a 400", name, err)
		}
	}
	if n := sims.Load(); n != 0 {
		t.Fatalf("%d simulations of invalid specs, want 0", n)
	}
}

// TestConcurrentCoalescing: N concurrent identical requests collapse into
// exactly one simulation, all answered byte-identically.
func TestConcurrentCoalescing(t *testing.T) {
	const n = 8
	release := make(chan struct{})
	var starts atomic.Int32
	srv, c := start(t, Config{Workers: 4, RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		starts.Add(1)
		select {
		case <-release:
			return netcache.Result{App: spec.App, Cycles: 42}, nil
		case <-ctx.Done():
			return netcache.Result{}, ctx.Err()
		}
	}})

	spec := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache}
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], errs[i] = c.RunRaw(context.Background(), spec)
		}(i)
	}
	// Wait until one leader is simulating and the other n-1 requests have
	// joined it, then let the simulation finish.
	waitFor(t, "followers to coalesce", func() bool {
		return starts.Load() == 1 && srv.runs.Coalesced.Load() == n-1
	})
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs: %s vs %s", i, bodies[i], bodies[0])
		}
	}
	if s := starts.Load(); s != 1 {
		t.Fatalf("%d simulations for %d identical requests", s, n)
	}
}

// TestFollowerOutlivesLeader: a request that coalesced onto another does
// not inherit that leader's cancellation. With the only worker busy on spec
// X, a leader for spec Y queues and a follower joins it; the leader's client
// then gives up. Once X finishes, the follower still gets Y's result.
func TestFollowerOutlivesLeader(t *testing.T) {
	release := make(chan struct{})
	var sims atomic.Int32
	srv, c := start(t, Config{Workers: 1, QueueDepth: 4, RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		sims.Add(1)
		if spec.Scale == 0.1 { // X holds the worker until released
			select {
			case <-release:
			case <-ctx.Done():
				return netcache.Result{}, ctx.Err()
			}
		}
		return netcache.Result{App: spec.App, Cycles: int64(spec.Scale * 1000)}, nil
	}})
	ctx := context.Background()
	x := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.1}
	y := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.2}

	xDone := make(chan error, 1)
	go func() {
		_, err := c.RunRaw(ctx, x)
		xDone <- err
	}()
	waitFor(t, "X to hold the worker", func() bool { return srv.runs.Running.Load() == 1 })

	leaderCtx, cancelLeader := context.WithCancel(ctx)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.RunRaw(leaderCtx, y)
		leaderDone <- err
	}()
	waitFor(t, "Y's leader to queue", func() bool { return srv.runs.Waiting.Load() == 1 })

	type reply struct {
		res netcache.Result
		err error
	}
	follower := make(chan reply, 1)
	go func() {
		res, err := c.Run(ctx, y)
		follower <- reply{res, err}
	}()
	waitFor(t, "the follower to coalesce", func() bool { return srv.runs.Coalesced.Load() == 1 })

	cancelLeader()
	if err := <-leaderDone; err == nil {
		t.Fatal("cancelled leader request succeeded")
	}
	waitFor(t, "the leader's handler to give up", func() bool {
		srv.m.mu.Lock()
		defer srv.m.mu.Unlock()
		return srv.m.requests["/v1/run|503"] >= 1
	})
	close(release)
	if err := <-xDone; err != nil {
		t.Fatalf("X: %v", err)
	}
	got := <-follower
	if got.err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", got.err)
	}
	if got.res.Cycles != 200 {
		t.Fatalf("follower result cycles = %d, want 200", got.res.Cycles)
	}
	if n := sims.Load(); n != 2 {
		t.Fatalf("%d simulations, want 2 (X and Y once)", n)
	}
}

// TestAdmissionQueue: with one worker and a one-deep queue, a third novel
// spec is refused with 429 and a Retry-After hint.
func TestAdmissionQueue(t *testing.T) {
	release := make(chan struct{})
	srv, c := start(t, Config{Workers: 1, QueueDepth: 1, RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		select {
		case <-release:
			return netcache.Result{App: spec.App}, nil
		case <-ctx.Done():
			return netcache.Result{}, ctx.Err()
		}
	}})
	ctx := context.Background()
	specN := func(i int) netcache.RunSpec {
		return netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.1 * float64(i+1)}
	}

	results := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = c.RunRaw(ctx, specN(i))
		}(i)
	}
	// First spec occupies the worker, second fills the queue.
	waitFor(t, "queue to fill", func() bool { return srv.runs.Running.Load()+srv.runs.Waiting.Load() == 2 })

	_, err := c.RunRaw(ctx, specN(2))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("overload reply = %v, want 429", err)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("Retry-After = %v, want >= 1s", se.RetryAfter)
	}
	close(release)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rej := metricValue(t, text, "netcached_admission_rejected_total"); rej != 1 {
		t.Fatalf("rejected = %d, want 1", rej)
	}
}

// TestBatch: duplicate members simulate once, order is preserved, and a bad
// member fails alone without failing the batch.
func TestBatch(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sims atomic.Int32
	_, c := start(t, Config{Store: st, Workers: 4, RunFunc: countingRun(&sims)})

	a := netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05}
	b := netcache.RunSpec{App: "sor", System: netcache.SystemLambdaNet, Scale: 0.05}
	bad := netcache.RunSpec{App: "doom", System: netcache.SystemNetCache}
	entries, err := c.Batch(context.Background(), []netcache.RunSpec{a, a, b, bad})
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Status != http.StatusOK || entries[1].Status != http.StatusOK || entries[2].Status != http.StatusOK {
		t.Fatalf("statuses = %+v", entries)
	}
	if !bytes.Equal(entries[0].Result, entries[1].Result) {
		t.Fatal("duplicate members returned different bytes")
	}
	if bytes.Equal(entries[0].Result, entries[2].Result) {
		t.Fatal("distinct systems returned identical results")
	}
	if entries[3].Status != http.StatusBadRequest || entries[3].Error == "" {
		t.Fatalf("bad member = %+v, want 400", entries[3])
	}
	if n := sims.Load(); n != 2 {
		t.Fatalf("%d simulations for batch [a,a,b,bad], want 2", n)
	}
}

func TestAppsAndHealth(t *testing.T) {
	_, c := start(t, Config{Workers: 1})
	ctx := context.Background()
	if state, err := c.Health(ctx); err != nil || state != "ok" {
		t.Fatalf("Health = %q, %v; want ok", state, err)
	}
	infos, err := c.Apps(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 12 {
		t.Fatalf("%d apps, want 12", len(infos))
	}
	for _, info := range infos {
		if info.Name == "" || info.Desc == "" {
			t.Fatalf("incomplete app info %+v", info)
		}
	}
	if _, err := c.RunRaw(ctx, netcache.RunSpec{App: "doom"}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestGracefulShutdownAborts is the drain acceptance test: with a real
// multi-second simulation in flight (sor at scale 1.0 runs ~17s), Shutdown
// with a short drain deadline must interrupt the engine, return promptly,
// and leak no goroutines.
func TestGracefulShutdownAborts(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := New(Config{Workers: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	c := NewClient("http://" + l.Addr().String())
	c.HTTPClient = &http.Client{}

	reqDone := make(chan error, 1)
	go func() {
		_, err := c.RunRaw(context.Background(), netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 1.0})
		reqDone <- err
	}()
	waitFor(t, "simulation to start", func() bool { return srv.runs.Running.Load() == 1 })

	const drain = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	begin := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	elapsed := time.Since(begin)
	// The engine aborts through its Interrupt path within milliseconds of
	// the deadline; 5s of slack keeps slow CI honest while still proving
	// the 17s simulation did not run to completion.
	if elapsed > drain+5*time.Second {
		t.Fatalf("shutdown took %v, drain deadline was %v", elapsed, drain)
	}
	var se *StatusError
	if err := <-reqDone; !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("in-flight request reply = %v, want 503", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	c.HTTPClient.CloseIdleConnections()

	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestShutdownDrainsCleanly: simulations that finish inside the deadline are
// not aborted.
func TestShutdownDrainsCleanly(t *testing.T) {
	release := make(chan struct{})
	srv, c := start(t, Config{Workers: 1, RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		select {
		case <-release:
			return netcache.Result{App: spec.App, Cycles: 7}, nil
		case <-ctx.Done():
			return netcache.Result{}, ctx.Err()
		}
	}})
	reqDone := make(chan error, 1)
	go func() {
		_, err := c.RunRaw(context.Background(), netcache.RunSpec{App: "sor", System: netcache.SystemNetCache})
		reqDone <- err
	}()
	waitFor(t, "simulation to start", func() bool { return srv.runs.Running.Load() == 1 })

	shutDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutDone <- srv.Shutdown(ctx) }()
	// New work is refused while draining.
	waitFor(t, "draining state", func() bool {
		return srv.runs.Closed()
	})
	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-reqDone; err != nil {
		t.Fatalf("draining request failed: %v", err)
	}
}

// acceptSignal is a listener that reports each connection it accepts.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// TestShutdownClosesSilentConnection: a connection that never sends a
// request does not hold Shutdown up. net/http counts such a connection as
// active until it is 5 s old, so Shutdown used to wait 5 s for it and
// fail with context.DeadlineExceeded whatever the caller's deadline.
func TestShutdownClosesSilentConnection(t *testing.T) {
	srv := New(Config{Workers: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	al := acceptSignal{Listener: l, accepted: make(chan struct{}, 1)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(al) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-al.accepted

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	begin := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a silent connection open: %v after %v", err, time.Since(begin))
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("shutdown took %v with a silent connection open", d)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the silent connection after shutdown = %d, %v; want EOF", n, err)
	}
}

func TestMetricsHistogram(t *testing.T) {
	var sims atomic.Int32
	_, c := start(t, Config{Workers: 2, RunFunc: countingRun(&sims)})
	ctx := context.Background()
	if _, err := c.RunRaw(ctx, netcache.RunSpec{App: "sor", System: netcache.SystemNetCache, Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`netcached_sim_duration_seconds_count{app="sor"} 1`,
		`netcached_sim_duration_seconds_bucket{app="sor",le="+Inf"} 1`,
		"# TYPE netcached_sim_duration_seconds histogram",
		"# TYPE netcached_requests_total counter",
		fmt.Sprintf("netcached_requests_total{path=%q,code=%q} 1", "/v1/run", "200"),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics lack %q:\n%s", want, text)
		}
	}
}
