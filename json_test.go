package netcache

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"netcache/internal/apps"
	"netcache/internal/machine"
)

// fullSpec exercises every RunSpec field, including non-default Config
// values, for wire-format tests.
func fullSpec() RunSpec {
	cfg := DefaultConfig()
	cfg.Procs = 8
	cfg.SharedCacheKB = 64
	cfg.SharedPolicy = PolicyLRU
	cfg.SharedDirectMap = true
	cfg.Seed = 7
	cfg.SingleStartReads = true
	cfg.Prefetch = true
	return RunSpec{
		App:      "sor",
		System:   SystemLambdaNet,
		Config:   cfg,
		Scale:    0.5,
		Verify:   true,
		TraceCap: 16,
	}
}

func TestRunSpecJSONRoundTrip(t *testing.T) {
	spec := fullSpec()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// System and Policy travel as their paper names, not enum ordinals.
	for _, want := range []string{`"System":"lambdanet"`, `"SharedPolicy":"lru"`} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("encoding %s lacks %s", b, want)
		}
	}
	var got RunSpec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round-trip drift:\n got %+v\nwant %+v", got, spec)
	}
}

func TestSystemJSONNames(t *testing.T) {
	for _, sys := range []System{SystemNetCache, SystemOptNet, SystemLambdaNet, SystemDMONU, SystemDMONI} {
		b, err := json.Marshal(sys)
		if err != nil {
			t.Fatal(err)
		}
		var got System
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != sys {
			t.Errorf("%s round-tripped to %s", sys, got)
		}
	}
	var legacy System
	if err := json.Unmarshal([]byte("2"), &legacy); err != nil || legacy != SystemLambdaNet {
		t.Errorf("legacy numeric decode = %v, %v", legacy, err)
	}
	if err := json.Unmarshal([]byte(`"not-a-system"`), &legacy); err == nil {
		t.Error("bad system name accepted")
	}
}

// TestCanonicalJSONByteStable asserts the store-key preimage cannot drift:
// repeated encodings are byte-identical, a decode/re-encode round trip is
// byte-identical, and specs that Run identically share one key while specs
// that differ get different keys.
func TestCanonicalJSONByteStable(t *testing.T) {
	spec := fullSpec()
	a, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical encoding unstable:\n%s\n%s", a, b)
	}
	// Round trip through the wire format and re-canonicalize.
	var rt RunSpec
	if err := json.Unmarshal(a, &rt); err != nil {
		t.Fatal(err)
	}
	c, err := rt.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("canonical encoding drifts across a round trip:\n%s\n%s", a, c)
	}
}

func TestCanonicalKeyAliasing(t *testing.T) {
	// A zero-value spec and its explicit-default spelling run identically,
	// so they must share one key.
	implicit := RunSpec{App: "sor", System: SystemNetCache}
	explicit := RunSpec{App: "sor", System: SystemNetCache, Config: DefaultConfig(), Scale: 0.25}
	ki, err := implicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	ke, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ki != ke {
		t.Errorf("equivalent specs key differently: %s vs %s", ki, ke)
	}
	// Any semantic difference must change the key.
	mutations := []func(*RunSpec){
		func(s *RunSpec) { s.App = "fft" },
		func(s *RunSpec) { s.System = SystemDMONI },
		func(s *RunSpec) { s.Scale = 0.5 },
		func(s *RunSpec) { s.Verify = true },
		func(s *RunSpec) { s.TraceCap = 8 },
		func(s *RunSpec) { s.Config.Procs = 4 },
		func(s *RunSpec) { s.Config.SharedCacheKB = 64 },
		func(s *RunSpec) { s.Config.SharedPolicy = PolicyFIFO },
		func(s *RunSpec) { s.Config.Seed = 3 },
		func(s *RunSpec) { s.Config.Prefetch = true },
	}
	seen := map[string]int{ki: -1}
	for i, mutate := range mutations {
		s := implicit
		mutate(&s)
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %d aliases with %d", i, prev)
		}
		seen[k] = i
	}
}

// FuzzRunSpecKey decodes arbitrary wire specs and checks the store-key
// contract on every one that Validate accepts: Canonical is idempotent,
// Key is the key of the canonical spec, and the canonical encoding decodes
// back to a spec with the same key.
func FuzzRunSpecKey(f *testing.F) {
	for _, spec := range []RunSpec{
		{App: "sor", System: SystemNetCache},
		{App: "gauss", System: SystemOptNet, Scale: 0.5},
		{App: "fft", System: SystemDMONI, Sampling: &Sampling{Mode: SampleStratified}},
		fullSpec(),
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec RunSpec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		canon := spec.Canonical()
		if again := canon.Canonical(); !reflect.DeepEqual(canon, again) {
			t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", canon, again)
		}
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		if ck, err := canon.Key(); err != nil || ck != key {
			t.Fatalf("Key %s, Canonical().Key() %s (%v)", key, ck, err)
		}
		b, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back RunSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, b)
		}
		if bk, err := back.Key(); err != nil || bk != key {
			t.Fatalf("decoded canonical encoding keys %s (%v), want %s\n%s", bk, err, key, b)
		}
	})
}

// TestResultJSONRoundTrip runs one real (tiny) simulation and pushes its
// Result through the wire format the netcached service stores and serves:
// the decode must reproduce every field — including the Proto map, the
// trace tail, and the Raw machine.RunStats with its histograms — and the
// encoding must be byte-stable so stored entries are byte-identical across
// re-encodings.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := Run(RunSpec{App: "sor", System: SystemNetCache, Scale: 0.1, TraceCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Proto) == 0 || len(res.Raw.Nodes) == 0 {
		t.Fatalf("test premise broken: result lacks Proto/Raw data: %+v", res)
	}
	if len(res.Trace) == 0 {
		t.Fatal("test premise broken: no trace recorded")
	}
	a, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(a, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("Result round-trip drift:\n got %+v\nwant %+v", got, res)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Result encoding is not byte-stable across a round trip")
	}
}

// failVerifyApp is a minimal workload whose Verify always fails, to pin the
// verification-failure contract of runApp.
type failVerifyApp struct {
	data *machine.F64
}

func (a *failVerifyApp) Name() string { return "failverify" }
func (a *failVerifyApp) Setup(m *machine.Machine, scale float64) {
	a.data = m.NewSharedF64(1 << 10)
}
func (a *failVerifyApp) Run(c *apps.Ctx) {
	for i := c.ID(); i < a.data.Len(); i += c.NP() {
		a.data.Store(c.Ctx, i, float64(i))
	}
	c.Sync()
	var sum float64
	for i := c.ID(); i < a.data.Len(); i += c.NP() {
		sum += a.data.Load(c.Ctx, i)
	}
	c.Sync()
}
func (a *failVerifyApp) Verify() error { return errors.New("checksum mismatch") }

// TestVerifyFailureKeepsTrace guards the RunContext bugfix: a verification
// failure must still hand back the partial Result with the recorded
// transaction tail — exactly when the trace is most useful.
func TestVerifyFailureKeepsTrace(t *testing.T) {
	spec := RunSpec{App: "failverify", System: SystemNetCache, Scale: 0.25, Verify: true, TraceCap: 16}
	res, err := runApp(context.Background(), spec, &failVerifyApp{})
	if err == nil {
		t.Fatal("failing Verify returned no error")
	}
	if !strings.Contains(err.Error(), "verification") {
		t.Fatalf("error lost the verification context: %v", err)
	}
	if res.Cycles == 0 {
		t.Fatal("partial Result discarded on verification failure")
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace buffer discarded on verification failure")
	}
}
