package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcache/internal/store"
)

// testKey derives a distinct valid result key from a label.
func testKey(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// listenN binds n loopback listeners and returns them with their URLs.
func listenN(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	ls := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i], urls[i] = l, "http://"+l.Addr().String()
	}
	return ls, urls
}

// manualLoops keeps the rebalance timer out of a test that drives the
// passes by hand; membership adoptions and peer recoveries still wake it.
func manualLoops(_ int, cfg *Config) {
	cfg.RebalanceInterval = 10 * time.Minute
}

// TestTransferFrameErrors feeds POST /v1/results and POST
// /v1/results/missing malformed bodies. Broken framing and capped bodies
// fail the whole request with nothing stored; a bad entry in a well-framed
// body fails only itself.
func TestTransferFrameErrors(t *testing.T) {
	good := ResultFrame{Key: testKey("good"), Value: []byte(`{"good":1}`)}
	other := ResultFrame{Key: testKey("other"), Value: []byte(`{"other":2}`)}
	lengthPastEnd := binary.BigEndian.AppendUint32([]byte(other.Key), 1000)
	lengthPastEnd = append(lengthPastEnd, `{"x":1}`...)
	tooMany := make([]ResultFrame, transferBatchKeys+1)
	for i := range tooMany {
		tooMany[i] = ResultFrame{Key: testKey(fmt.Sprint("many", i)), Value: []byte(`{}`)}
	}
	manyKeys := make([]string, transferBatchKeys+1)
	for i := range manyKeys {
		manyKeys[i] = tooMany[i].Key
	}

	cases := []struct {
		name     string
		path     string
		body     []byte
		declared int64 // Content-Length to claim; 0 means the body's own
		code     int
		outcomes []int    // per-entry statuses of a 200 push
		stored   []string // keys that must be stored afterwards
		missing  []string // a 200 presence check's answer
	}{
		{name: "truncated header", path: "/v1/results",
			body: append(encodeFrames([]ResultFrame{good}), other.Key[:10]...), code: http.StatusBadRequest},
		{name: "key not hex", path: "/v1/results",
			body: encodeFrames([]ResultFrame{good, {Key: strings.Repeat("z", 64), Value: []byte(`{}`)}, other}),
			code: http.StatusOK, outcomes: []int{200, 400, 200}, stored: []string{good.Key, other.Key}},
		{name: "length past end", path: "/v1/results",
			body: append(encodeFrames([]ResultFrame{good}), lengthPastEnd...), code: http.StatusBadRequest},
		{name: "entry not JSON", path: "/v1/results",
			body: encodeFrames([]ResultFrame{good, {Key: other.Key, Value: []byte(`{"other":`)}}),
			code: http.StatusOK, outcomes: []int{200, 400}, stored: []string{good.Key}},
		{name: "key count over cap", path: "/v1/results",
			body: encodeFrames(tooMany), code: http.StatusRequestEntityTooLarge},
		{name: "body over cap", path: "/v1/results",
			body: encodeFrames([]ResultFrame{good}), declared: maxPushBytes + 1, code: http.StatusRequestEntityTooLarge},
		{name: "empty push", path: "/v1/results", code: http.StatusOK, outcomes: []int{}},
		{name: "check: bad key", path: "/v1/results/missing",
			body: []byte(`{"keys":["` + good.Key + `","nothex"]}`), code: http.StatusBadRequest},
		{name: "check: not JSON", path: "/v1/results/missing",
			body: []byte(`{"keys":[`), code: http.StatusBadRequest},
		{name: "check: key count over cap", path: "/v1/results/missing",
			body: mustJSON(t, MissingRequest{Keys: manyKeys}), code: http.StatusRequestEntityTooLarge},
		{name: "check: body over cap", path: "/v1/results/missing",
			body: []byte(`{"keys":[]}`), declared: maxMissingBytes + 1, code: http.StatusRequestEntityTooLarge},
		{name: "check", path: "/v1/results/missing",
			body: mustJSON(t, MissingRequest{Keys: []string{good.Key, other.Key}}), code: http.StatusOK, missing: []string{good.Key, other.Key}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			srv := New(Config{Store: st, Workers: 1})
			req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
			if tc.declared > 0 {
				req.ContentLength = tc.declared
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.code, rec.Body)
			}
			if tc.outcomes != nil {
				var resp PushResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				got := make([]int, len(resp.Results))
				for i, o := range resp.Results {
					got[i] = o.Status
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.outcomes) {
					t.Fatalf("outcomes %v, want %v", got, tc.outcomes)
				}
			}
			if tc.missing != nil {
				var resp MissingResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(resp.Missing) != fmt.Sprint(tc.missing) {
					t.Fatalf("missing %v, want %v", resp.Missing, tc.missing)
				}
			}
			if keys := st.Keys(); fmt.Sprint(keys) != fmt.Sprint(sorted(tc.stored)) {
				t.Fatalf("stored %v, want %v", keys, sorted(tc.stored))
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sorted(keys []string) []string {
	out := append([]string{}, keys...)
	sort.Strings(out)
	return out
}

// TestTransferEndpointGates checks the request gates: a degraded store
// refuses pushes with 503, the presence check and push take POST only, and
// /v1/result/{key} takes GET only.
func TestTransferEndpointGates(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(Config{Store: st, Workers: 1, DegradedProbe: time.Hour})
	f := ResultFrame{Key: testKey("gate"), Value: []byte(`{"gate":1}`)}
	do := func(method, path string, body []byte) int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code
	}
	if code := do(http.MethodGet, "/v1/results", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/results = %d, want 405", code)
	}
	if code := do(http.MethodGet, "/v1/results/missing", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/results/missing = %d, want 405", code)
	}
	if code := do(http.MethodPut, "/v1/result/"+f.Key, f.Value); code != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/result/{key} = %d, want 405", code)
	}
	for i := 0; i < srv.cfg.DegradedAfter; i++ {
		srv.putFailed(f.Key, errors.New("injected"))
	}
	if code := do(http.MethodPost, "/v1/results", encodeFrames([]ResultFrame{f})); code != http.StatusServiceUnavailable {
		t.Errorf("push while degraded = %d, want 503", code)
	}
	if _, ok := st.Get(f.Key); ok {
		t.Error("a degraded store accepted a push")
	}
}

// TestReadCapped covers the body cap on declared and undeclared lengths.
func TestReadCapped(t *testing.T) {
	for _, tc := range []struct {
		body     string
		declared int64
		err      error
	}{
		{"12345", 5, nil},
		{"12345", -1, nil},
		{"123456", -1, errBodyTooLarge},
		{"1", 6, errBodyTooLarge},
		{"", 0, nil},
	} {
		got, err := readCapped(strings.NewReader(tc.body), tc.declared, 5)
		if !errors.Is(err, tc.err) || (err == nil && string(got) != tc.body) {
			t.Errorf("readCapped(%q, %d) = %q, %v; want %v", tc.body, tc.declared, got, err, tc.err)
		}
	}
}

// FuzzTransferFrames: decoding never panics, whatever decodes re-encodes to
// the same body, and encoding then decoding returns the same keys and
// bytes.
func FuzzTransferFrames(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("short"), uint8(3))
	f.Add(encodeFrames([]ResultFrame{{Key: testKey("seed"), Value: []byte(`{"a": "<b>&</b>"}`)}}), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, parts uint8) {
		if frames, err := decodeFrames(body, transferBatchKeys); err == nil && !bytes.Equal(encodeFrames(frames), body) {
			t.Fatalf("decoded %d frames that re-encode differently", len(frames))
		}
		want := make([]ResultFrame, int(parts)%8+1)
		for i := range want {
			lo, hi := len(body)*i/len(want), len(body)*(i+1)/len(want)
			want[i] = ResultFrame{Key: testKey(fmt.Sprint(i)), Value: body[lo:hi]}
		}
		got, err := decodeFrames(encodeFrames(want), transferBatchKeys)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d frames back, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("frame %d changed in the round trip", i)
			}
		}
	})
}

// TestPushStoresBytesVerbatim pushes a value that a JSON re-encode would
// change (whitespace, HTML characters) and checks the stored bytes are the
// pushed ones, and that the presence check then reports the key present.
func TestPushStoresBytesVerbatim(t *testing.T) {
	ctx := context.Background()
	nodes := startCluster(t, 1, 1, manualLoops)
	f := ResultFrame{Key: testKey("verbatim"), Value: []byte("{ \"html\": \"<a href='x'>&amp;</a>\",\n  \"n\": 1.50 }")}
	out, err := nodes[0].c.PushResults(ctx, []ResultFrame{f})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Status != http.StatusOK {
		t.Fatalf("push outcomes %+v", out)
	}
	if got, ok := nodes[0].st.Get(f.Key); !ok || !bytes.Equal(got, f.Value) {
		t.Fatalf("stored %q, want %q", got, f.Value)
	}
	absent := testKey("absent")
	missing, err := nodes[0].c.MissingResults(ctx, []string{f.Key, absent})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != absent {
		t.Fatalf("missing = %v, want just %s", missing, absent[:8])
	}
}

// TestTransferBatchesByBudget drives transfer directly: pushes close at the
// byte budget, an entry larger than the budget travels alone, a second
// transfer of the same keys finds them all present and pushes nothing, and
// a key with no local copy comes back gone.
func TestTransferBatchesByBudget(t *testing.T) {
	ctx := context.Background()
	nodes := startCluster(t, 2, 1, manualLoops)
	a, b := nodes[0], nodes[1]
	big := []byte(`"` + strings.Repeat("x", transferBatchBytes) + `"`)
	keys := []string{testKey("small-1"), testKey("small-2"), testKey("big"), testKey("small-3"), testKey("absent")}
	for i, key := range keys[:4] {
		v := []byte(fmt.Sprintf(`{"small":%d}`, i))
		if i == 2 {
			v = big
		}
		if err := a.st.Put(key, v); err != nil {
			t.Fatal(err)
		}
	}
	var sent []int
	record := func(n int) bool { sent = append(sent, n); return true }

	out := a.srv.transfer(ctx, b.url, keys, record)
	want := []transferOutcome{transferStored, transferStored, transferStored, transferStored, transferGone}
	if fmt.Sprint(out) != fmt.Sprint(want) || fmt.Sprint(sent) != "[2 1 1]" {
		t.Fatalf("first transfer: outcomes %v, pushes of %v keys; want %v and [2 1 1]", out, sent, want)
	}
	if got, ok := b.st.Get(keys[2]); !ok || !bytes.Equal(got, big) {
		t.Fatal("oversize entry not stored byte for byte")
	}

	sent = nil
	out = a.srv.transfer(ctx, b.url, keys[:4], record)
	if fmt.Sprint(out) != fmt.Sprint([]transferOutcome{transferPresent, transferPresent, transferPresent, transferPresent}) || len(sent) != 0 {
		t.Fatalf("second transfer: outcomes %v, pushes %v; want all present, no push", out, sent)
	}
}

// TestRebalanceRestartAndWake: a key stored outside this node's replica
// set is owed to that set, with no record kept of why, so what a node owes
// survives a restart. A holds keys that B owns while B is down, and owes
// B exactly those keys before and after it restarts on its directory; a
// hint file an older version left under handoff/ changes nothing. With
// the timer at 10 min, B coming back up is the only wake A's loop gets,
// and it delivers every key.
func TestRebalanceRestartAndWake(t *testing.T) {
	ctx := context.Background()
	nodes := startCluster(t, 2, 1, manualLoops)
	a, b := nodes[0], nodes[1]
	b.stop(t)
	waitFor(t, "A to see B down", func() bool { return !a.cl.Up(b.url) })

	val := func(key string) []byte { return []byte(`{"owed":"` + key[:8] + `"}`) }
	var owed []string
	for i := 0; len(owed) < 40; i++ {
		if key := testKey(fmt.Sprint("owed-", i)); a.cl.Owner(key) == b.url {
			if err := a.st.Put(key, val(key)); err != nil {
				t.Fatal(err)
			}
			owed = append(owed, key)
		}
	}
	checkOwed := func(when string) {
		t.Helper()
		a.srv.RebalancePass(ctx)
		if rs := a.srv.RebalanceStatus(); rs.Owed != uint64(len(owed)) || rs.Done {
			t.Fatalf("%s: status %+v, want %d owed and not Done", when, rs, len(owed))
		}
	}
	checkOwed("B down")

	if err := os.MkdirAll(filepath.Join(a.dir, "handoff"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(a.dir, "handoff", owed[0]+".hint"), []byte(b.url), 0o644); err != nil {
		t.Fatal(err)
	}
	a.stop(t)
	a = restartNode(t, nodes, 0, 1, manualLoops)
	waitFor(t, "restarted A to see B down", func() bool { return !a.cl.Up(b.url) })
	checkOwed("A restarted, B down")

	b = restartNode(t, nodes, 1, 1, manualLoops)
	waitFor(t, "B's recovery to wake a pass that delivers every key", func() bool {
		rs := a.srv.RebalanceStatus()
		return rs.Done && rs.Owed == 0
	})
	for _, key := range owed {
		if got, ok := b.st.Get(key); !ok || !bytes.Equal(got, val(key)) {
			t.Fatalf("owed key %s not on B byte for byte after the wake", key[:8])
		}
	}
	if rs := a.srv.RebalanceStatus(); rs.Moved != uint64(len(owed)) {
		t.Fatalf("wake pass moved %d keys, want %d", rs.Moved, len(owed))
	}
}

// poisonFS fails every write of one value while armed and cancels a
// context once `after` further writes have succeeded — a push that fails
// for one key, then a shutdown some keys later.
type poisonFS struct {
	store.FS
	mu     sync.Mutex
	value  []byte
	after  int
	cancel context.CancelFunc
	fired  bool
	since  int
}

func (f *poisonFS) WriteTemp(dir string, data []byte) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.value != nil && bytes.HasSuffix(data, f.value) {
		f.fired = true
		return "", &os.PathError{Op: "write", Path: dir, Err: store.ErrInjected}
	}
	if f.fired && f.cancel != nil {
		if f.since++; f.since == f.after {
			f.cancel()
		}
	}
	return f.FS.WriteTemp(dir, data)
}

// disarm stops the injection and reports whether the poison fired and
// the cancellation happened.
func (f *poisonFS) disarm() (fired, cancelled bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fired, cancelled = f.fired, f.since >= f.after
	f.value, f.cancel = nil, nil
	return fired, cancelled
}

// TestRebalanceRewalkAfterFailure: a pass interrupted after a failed push
// leaves the next pass to deliver the failed key. The destination refuses
// one key while the first pass runs, and the pass is cancelled 40 stores
// later, as a shutdown would. The next pass may report Done only with
// every key, the refused one included, on its owner.
func TestRebalanceRewalkAfterFailure(t *testing.T) {
	ls, urls := listenN(t, 2)
	fsys := &poisonFS{FS: store.NewFaultFS(nil), after: 40}
	mutate := func(i int, cfg *Config) {
		manualLoops(i, cfg)
		cfg.DegradedAfter = 1 << 20 // the injected failures must not trip degraded mode
	}
	src := bootClusterNode(t, urls, 0, t.TempDir(), nil, ls[0], 1, mutate)
	dst := bootClusterNode(t, urls, 1, t.TempDir(), fsys, ls[1], 1, mutate)
	waitFor(t, "peers to probe up", func() bool { return src.cl.Up(dst.url) })

	val := func(i int) []byte { return []byte(fmt.Sprintf(`{"entry":%d}`, i)) }
	vals := make(map[string][]byte)
	var all, owned []string
	for i := 0; len(owned) < 300; i++ {
		key := testKey(fmt.Sprint("cursor-", i))
		if err := src.st.Put(key, val(i)); err != nil {
			t.Fatal(err)
		}
		vals[key] = val(i)
		all = append(all, key)
		if src.cl.Owner(key) == dst.url {
			owned = append(owned, key)
		}
	}
	sort.Strings(all)
	// Poison the first destination-owned key of the second walk chunk, so
	// the first chunk is delivered cleanly before the failure.
	var poison string
	for _, key := range all[transferBatchKeys:] {
		if src.cl.Owner(key) == dst.url {
			poison = key
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fsys.mu.Lock()
	fsys.value, fsys.cancel = vals[poison], cancel
	fsys.mu.Unlock()

	src.srv.RebalancePass(ctx)
	if fired, cancelled := fsys.disarm(); !fired || !cancelled {
		t.Fatalf("scenario did not happen: poison fired %v, pass cancelled %v", fired, cancelled)
	}
	if rs := src.srv.RebalanceStatus(); rs.Done {
		t.Fatalf("interrupted pass reported Done: %+v", rs)
	}

	src.srv.RebalancePass(context.Background())
	rs := src.srv.RebalanceStatus()
	if !rs.Done || rs.Errors != 0 {
		t.Fatalf("next pass = %+v, want Done with no errors", rs)
	}
	for _, key := range owned {
		if got, ok := dst.st.Get(key); !ok || !bytes.Equal(got, vals[key]) {
			t.Fatalf("next pass reported %+v while key %s (poisoned: %v) is missing on its owner", rs, key[:8], key == poison)
		}
	}
}

// seedOwed stores perRange entries in each of the first ranges key ranges
// on src, all owned by dst, and returns them by key.
func seedOwed(t *testing.T, src, dst *cnode, label string, ranges, perRange int) map[string][]byte {
	t.Helper()
	vals := make(map[string][]byte)
	count := make([]int, ranges)
	for i, n := 0, 0; n < ranges*perRange; i++ {
		key := testKey(fmt.Sprint(label, i))
		r := keyRange(key)
		if r >= ranges || count[r] == perRange || src.cl.Owner(key) != dst.url {
			continue
		}
		vals[key] = []byte(fmt.Sprintf(`{%q:%d}`, label, i))
		if err := src.st.Put(key, vals[key]); err != nil {
			t.Fatal(err)
		}
		count[r]++
		n++
	}
	return vals
}

// wrapInternode routes node 0's inter-node requests through rt.
func wrapInternode(rt http.RoundTripper) func(int, *Config) {
	return func(i int, cfg *Config) {
		manualLoops(i, cfg)
		if i != 0 {
			return
		}
		internode := cfg.Internode
		cfg.Internode = func(peer string) *Client {
			c := internode(peer)
			c.HTTPClient = &http.Client{Transport: rt}
			return c
		}
	}
}

// pairingTransport counts the POST /v1/results pushes in flight through
// it and holds a push that is alone until another arrives or 500 ms pass,
// so pushes that a pass could overlap do overlap.
type pairingTransport struct {
	mu            sync.Mutex
	inFlight, max int
	pair          chan struct{} // a lone push's; closed when another arrives
}

func (p *pairingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/results" {
		return http.DefaultTransport.RoundTrip(r)
	}
	p.mu.Lock()
	p.inFlight++
	p.max = max(p.max, p.inFlight)
	alone := p.inFlight == 1
	if alone {
		p.pair = make(chan struct{})
	} else if p.pair != nil {
		close(p.pair) // releases the lone push
		p.pair = nil
	}
	pair := p.pair
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inFlight--
		p.mu.Unlock()
	}()
	if alone {
		select {
		case <-pair:
		case <-time.After(500 * time.Millisecond):
		case <-r.Context().Done():
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRebalanceRangesInFlight: a pass works on two key ranges at once. A
// holds keys B owns in four ranges; A's pushes to B go through a
// transport that holds a lone push until another arrives. The most
// pushes in flight at once is exactly two, and every key lands on B.
func TestRebalanceRangesInFlight(t *testing.T) {
	rt := &pairingTransport{}
	nodes := startCluster(t, 2, 1, wrapInternode(rt))
	src, dst := nodes[0], nodes[1]
	waitFor(t, "peers to probe up", func() bool { return src.cl.Up(dst.url) })
	vals := seedOwed(t, src, dst, "in-flight-", 4, 10)

	src.srv.RebalancePass(context.Background())
	if rs := src.srv.RebalanceStatus(); !rs.Done {
		t.Fatalf("pass not Done: %+v", rs)
	}
	for key, v := range vals {
		if got, ok := dst.st.Get(key); !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s (range %d) not on B byte for byte", key[:8], keyRange(key))
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.max != rangesInFlight {
		t.Fatalf("at most %d pushes were in flight, want %d", rt.max, rangesInFlight)
	}
}

// requestRange is the key range of the first key a presence check or a
// push carries, or -1.
func requestRange(r *http.Request) int {
	if r.GetBody == nil {
		return -1
	}
	body, err := r.GetBody()
	if err != nil {
		return -1
	}
	b, _ := io.ReadAll(body)
	switch r.URL.Path {
	case "/v1/results":
		if len(b) >= frameKeyLen {
			return keyRange(string(b[:frameKeyLen]))
		}
	case "/v1/results/missing":
		var req MissingRequest
		if json.Unmarshal(b, &req) == nil && len(req.Keys) > 0 {
			return keyRange(req.Keys[0])
		}
	}
	return -1
}

// holdFailTransport holds the push of range held until a request for a
// range past held+1 shows that range held+1 is finished (or 500 ms pass),
// then cancels the pass, as a shutdown would, and fails the held push.
type holdFailTransport struct {
	held   int
	cancel context.CancelFunc
	armed  atomic.Bool
	fired  atomic.Bool
	once   sync.Once
	later  chan struct{} // closed by the first request for a range past held+1
}

func (h *holdFailTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !h.armed.Load() {
		return http.DefaultTransport.RoundTrip(r)
	}
	switch rg := requestRange(r); {
	case rg > h.held+1:
		h.once.Do(func() { close(h.later) })
	case rg == h.held && r.URL.Path == "/v1/results":
		select {
		case <-h.later:
		case <-time.After(500 * time.Millisecond):
		}
		h.fired.Store(true)
		h.cancel()
		return nil, errors.New("push failed by test transport")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRebalanceRewalkRangesInFlight: a pass cut with ranges finished out
// of order leaves nothing undelivered. A holds keys B owns in ranges 0-4.
// Ranges 0 and 1 go through; range 2's push is held until range 3 is
// finished and range 4 has begun, then fails as the pass is cancelled.
// The next pass delivers every key before it reports Done.
func TestRebalanceRewalkRangesInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt := &holdFailTransport{held: 2, cancel: cancel, later: make(chan struct{})}
	nodes := startCluster(t, 2, 1, wrapInternode(rt))
	src, dst := nodes[0], nodes[1]
	waitFor(t, "peers to probe up", func() bool { return src.cl.Up(dst.url) })
	vals := seedOwed(t, src, dst, "cursor-in-flight-", 5, 8)

	rt.armed.Store(true)
	src.srv.RebalancePass(ctx)
	rt.armed.Store(false)
	if !rt.fired.Load() {
		t.Fatal("scenario did not happen: range 2's push was never failed")
	}
	if rs := src.srv.RebalanceStatus(); rs.Done {
		t.Fatalf("interrupted pass reported Done: %+v", rs)
	}

	waitFor(t, "A to see B up", func() bool { return src.cl.Up(dst.url) })
	src.srv.RebalancePass(context.Background())
	if rs := src.srv.RebalanceStatus(); !rs.Done || rs.Errors != 0 {
		t.Fatalf("next pass = %+v, want Done with no errors", rs)
	}
	for key, v := range vals {
		if got, ok := dst.st.Get(key); !ok || !bytes.Equal(got, v) {
			t.Fatalf("next pass reported Done while key %s (range %d) is missing on B", key[:8], keyRange(key))
		}
	}
}

// TestRebalanceIgnoresStaleCursor: a store directory an older version
// wrote may hold rebalance/cursor.json, that version's record of the key
// ranges a pass had finished at an epoch. Two rings can share an epoch (a
// static -peers ring stays at epoch 0), so such a record proves nothing,
// and the pass reads none. A holds 8 keys B owns, in ranges 0 and 1, and a
// cursor at A's epoch past both ranges. The next pass delivers every key,
// byte for byte, before it reports Done.
func TestRebalanceIgnoresStaleCursor(t *testing.T) {
	nodes := startCluster(t, 2, 1, manualLoops)
	src, dst := nodes[0], nodes[1]
	waitFor(t, "peers to probe up", func() bool { return src.cl.Up(dst.url) })
	vals := seedOwed(t, src, dst, "stale-cursor-", 2, 4)
	dir := filepath.Join(src.st.Dir(), "rebalance")
	cursor := fmt.Sprintf(`{"epoch":%d,"after":%q}`, src.cl.Epoch(), "1"+strings.Repeat("f", 63))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cursor.json"), []byte(cursor), 0o644); err != nil {
		t.Fatal(err)
	}

	src.srv.RebalancePass(context.Background())
	rs := src.srv.RebalanceStatus()
	missing := 0
	for key, v := range vals {
		if got, ok := dst.st.Get(key); !ok || !bytes.Equal(got, v) {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("pass reported %+v while %d of %d keys are missing on their owner", rs, missing, len(vals))
	}
	if !rs.Done || rs.Owed != 0 || rs.Errors != 0 {
		t.Fatalf("pass = %+v, want Done with nothing owed", rs)
	}
}

// TestRebalanceCutPassCountsNoErrors: keys a cut pass never read or
// pushed are owed, not failed. A holds 300 keys of range 0 that B owns,
// two presence-check batches. At 1000 keys/s the push of the first 256
// is followed by a 256 ms pacing sleep, and the pass is cancelled 20 ms
// after B has stored them: the other 44 keys were never offered, so the
// pass counts no rebalance errors. A full pass then delivers them.
func TestRebalanceCutPassCountsNoErrors(t *testing.T) {
	const keys, rate = 300, 1000
	nodes := startCluster(t, 2, 1, func(i int, cfg *Config) {
		manualLoops(i, cfg)
		cfg.RebalanceRate = rate
	})
	a, b := nodes[0], nodes[1]
	waitFor(t, "peers to probe up", func() bool { return a.cl.Up(b.url) })
	vals := seedOwed(t, a, b, "cut-", 1, keys)

	ctx, cancel := context.WithCancel(context.Background())
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for ctx.Err() == nil {
			stored := 0
			for key := range vals {
				if _, ok := b.st.Peek(key); ok {
					stored++
				}
			}
			if stored >= transferBatchKeys {
				time.Sleep(20 * time.Millisecond)
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	moved, _ := a.srv.RebalancePass(ctx)
	cancel()
	<-watched
	text, err := a.c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if errs := metricValue(t, text, "netcached_cluster_rebalance_errors_total"); moved != transferBatchKeys || errs != 0 {
		t.Fatalf("cut pass: moved %d, rebalance_errors_total %d; want %d and 0", moved, errs, transferBatchKeys)
	}

	a.srv.RebalancePass(context.Background())
	if rs := a.srv.RebalanceStatus(); !rs.Done || rs.Moved != keys-transferBatchKeys || rs.Errors != 0 {
		t.Fatalf("full pass after the cut = %+v, want Done, %d moved, no errors", rs, keys-transferBatchKeys)
	}
	for key, v := range vals {
		if got, ok := b.st.Get(key); !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s not on B byte for byte", key[:8])
		}
	}
}

// TestRebalanceLeavesLRU: background transfers read without touching the
// LRU. A pass over a source whose entries sit in the cold tier promotes
// none of them, a hot source entry keeps its mtime, and the destination's
// presence check promotes none of the cold entries it already holds.
func TestRebalanceLeavesLRU(t *testing.T) {
	nodes := startCluster(t, 2, 2, manualLoops)
	src, dst := nodes[0], nodes[1]
	waitFor(t, "peers to probe up", func() bool { return src.cl.Up(dst.url) })

	old := time.Now().Add(-2 * time.Hour) // past the default 1h cold age
	age := func(n *cnode, key string, when time.Time) {
		if err := os.Chtimes(filepath.Join(n.dir, key+".res"), when, when); err != nil {
			t.Fatal(err)
		}
	}
	const entries = 100
	for i := 0; i < entries; i++ {
		key := testKey(fmt.Sprint("lru-", i))
		v := []byte(fmt.Sprintf(`{"lru":%d}`, i))
		if err := src.st.Put(key, v); err != nil {
			t.Fatal(err)
		}
		age(src, key, old)
		if i%2 == 0 {
			if err := dst.st.Put(key, v); err != nil {
				t.Fatal(err)
			}
			age(dst, key, old)
		}
	}
	src.st.Compact()
	dst.st.Compact()
	hot := testKey("lru-hot")
	if err := src.st.Put(hot, []byte(`{"lru":"hot"}`)); err != nil {
		t.Fatal(err)
	}
	warm := time.Now().Add(-30 * time.Minute).Truncate(time.Second)
	age(src, hot, warm)
	srcBefore, dstBefore := src.st.Stats(), dst.st.Stats()
	if srcBefore.ColdEntries != entries || dstBefore.ColdEntries != entries/2 {
		t.Fatalf("cold entries %d and %d before the pass, want %d and %d", srcBefore.ColdEntries, dstBefore.ColdEntries, entries, entries/2)
	}

	moved, skipped := src.srv.RebalancePass(context.Background())
	if moved != entries/2+1 || skipped != entries/2 {
		t.Fatalf("pass moved %d and skipped %d, want %d and %d", moved, skipped, entries/2+1, entries/2)
	}
	srcAfter, dstAfter := src.st.Stats(), dst.st.Stats()
	if srcAfter.Promotions != srcBefore.Promotions || srcAfter.ColdEntries != srcBefore.ColdEntries {
		t.Errorf("source: promotions %d -> %d, cold entries %d -> %d", srcBefore.Promotions, srcAfter.Promotions, srcBefore.ColdEntries, srcAfter.ColdEntries)
	}
	if dstAfter.Promotions != dstBefore.Promotions || dstAfter.ColdEntries != dstBefore.ColdEntries {
		t.Errorf("destination: promotions %d -> %d, cold entries %d -> %d", dstBefore.Promotions, dstAfter.Promotions, dstBefore.ColdEntries, dstAfter.ColdEntries)
	}
	info, err := os.Stat(filepath.Join(src.dir, hot+".res"))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().Equal(warm) {
		t.Errorf("hot entry mtime %v -> %v: the pass refreshed the LRU clock", warm, info.ModTime())
	}
}

// TestRebalanceRateHoldsOnAverage: with -rebalance-rate set, every push
// reserves its key count over the rate on one schedule that the ranges
// in flight share, and sleeps until its reservation ends, so a pass
// cannot beat the cap however its ranges overlap, and a shutdown during
// that sleep ends the pass at once.
func TestRebalanceRateHoldsOnAverage(t *testing.T) {
	const keys, rate = 60, 300 // about 16 per-range pushes, 200 ms of reservations
	capped := time.Second * keys / rate
	nodes := startCluster(t, 2, 1, func(i int, cfg *Config) {
		manualLoops(i, cfg)
		cfg.RebalanceRate = rate
	})
	src, dst := nodes[0], nodes[1]
	waitFor(t, "peers to probe up", func() bool { return src.cl.Up(dst.url) })
	next := 0
	seed := func() { // adds keys entries that dst owns to src
		for n := 0; n < keys; next++ {
			key := testKey(fmt.Sprint("rate-", next))
			if src.cl.Owner(key) != dst.url {
				continue
			}
			if err := src.st.Put(key, []byte(fmt.Sprintf(`{"rate":%d}`, next))); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}

	seed()
	start := time.Now()
	moved, _ := src.srv.RebalancePass(context.Background())
	if d := time.Since(start); moved != keys || d < capped {
		t.Fatalf("pass moved %d keys in %v; want %d in no less than %v", moved, d, keys, capped)
	}
	if rs := src.srv.RebalanceStatus(); !rs.Done {
		t.Fatalf("rate-limited pass not Done: %+v", rs)
	}

	seed()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start = time.Now()
	src.srv.RebalancePass(ctx)
	if d := time.Since(start); d >= capped {
		t.Fatalf("cancelled pass took %v; the rate sleep ignored the shutdown", d)
	}
}

// TestShutdownCancelsRebalancePass: Shutdown cancels a rebalance pass in
// flight instead of waiting it out past the drain deadline. A peer flap
// wakes A's loop, whose pass pushes 60 owed keys of one key range in one
// request and then sleeps 3 s to hold a 20 keys/s rate; Shutdown with a
// 200 ms deadline must return well inside that sleep.
func TestShutdownCancelsRebalancePass(t *testing.T) {
	const keys, rate = 60, 20
	nodes := startCluster(t, 2, 1, func(i int, cfg *Config) {
		manualLoops(i, cfg)
		cfg.RebalanceRate = rate
	})
	a, b := nodes[0], nodes[1]
	waitFor(t, "peers to probe up", func() bool { return a.cl.Up(b.url) })
	var owed []string
	for i := 0; len(owed) < keys; i++ {
		if key := testKey(fmt.Sprint("shutdown-", i)); keyRange(key) == 0 && a.cl.Owner(key) == b.url {
			if err := a.st.Put(key, []byte(fmt.Sprintf(`{"shutdown":%d}`, i))); err != nil {
				t.Fatal(err)
			}
			owed = append(owed, key)
		}
	}
	a.cl.MarkDown(b.url) // the next probe marks B up, which wakes the pass
	waitFor(t, "the woken pass to push every key", func() bool {
		for _, key := range owed {
			if _, ok := b.st.Peek(key); !ok {
				return false
			}
		}
		return true
	})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := a.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v with a 200 ms deadline: it waited out the pass's rate sleep", d)
	}
}
