package netcache

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSamplingCanonicalZeroValue pins the store-key compatibility contract:
// a zero-valued (or mode-less) Sampling pointer runs exactly like a full run,
// so it must canonicalize to the pre-sampling encoding — byte-identical
// canonical JSON and an equal key, with no Sampling field on the wire.
func TestSamplingCanonicalZeroValue(t *testing.T) {
	base := RunSpec{App: "sor", System: SystemNetCache}
	bb, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(bb, []byte("Sampling")) {
		t.Fatalf("full-run canonical encoding mentions Sampling: %s", bb)
	}
	for _, smp := range []*Sampling{
		{},
		{IntervalRefs: 4096, WarmupRefs: 512, Period: 8, Intervals: 4, Seed: 3}, // mode-less
	} {
		spec := base
		spec.Sampling = smp
		sb, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bb, sb) {
			t.Errorf("disabled sampling %+v changes the canonical encoding:\n%s\n%s", smp, bb, sb)
		}
	}
}

// TestSamplingCanonicalKeys checks enabled sampling hashes to its own key,
// equivalent spellings alias, and every semantic knob separates keys.
func TestSamplingCanonicalKeys(t *testing.T) {
	base := RunSpec{App: "sor", System: SystemNetCache}
	full, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	sampled := base
	sampled.Sampling = &Sampling{Mode: SamplePeriodic}
	ks, err := sampled.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ks == full {
		t.Fatal("sampled spec shares the full-run key")
	}
	// Equivalent spellings share one key: implicit defaults vs explicit,
	// any negative Intervals vs -1, and a periodic seed (placement ignores
	// it) vs none.
	aliases := []*Sampling{
		{Mode: SamplePeriodic, IntervalRefs: 32768, WarmupRefs: 4096, Period: 16, Intervals: 32},
		{Mode: SamplePeriodic, Seed: 99},
	}
	for i, smp := range aliases {
		s := base
		s.Sampling = smp
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k != ks {
			t.Errorf("alias %d (%+v) keys differently", i, smp)
		}
	}
	neg5, neg1 := base, base
	neg5.Sampling = &Sampling{Mode: SamplePeriodic, Intervals: -5}
	neg1.Sampling = &Sampling{Mode: SamplePeriodic, Intervals: -1}
	k5, _ := neg5.Key()
	k1, _ := neg1.Key()
	if k5 != k1 {
		t.Error("negative Intervals spellings key differently")
	}
	// Every semantic difference separates keys.
	mutations := []*Sampling{
		{Mode: SampleStratified},
		{Mode: SampleStratified, Seed: 7},
		{Mode: SamplePeriodic, IntervalRefs: 1024},
		{Mode: SamplePeriodic, WarmupRefs: 512},
		{Mode: SamplePeriodic, Period: 8},
		{Mode: SamplePeriodic, Intervals: 8},
		{Mode: SamplePeriodic, Intervals: -1},
	}
	seen := map[string]int{full: -2, ks: -1}
	for i, smp := range mutations {
		s := base
		s.Sampling = smp
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("sampling mutation %d aliases with %d", i, prev)
		}
		seen[k] = i
	}
}

// TestSampledRunDeterministic checks a sampled run is bit-deterministic:
// interval placement is a pure function of the spec, so repeated runs must
// agree on every byte of the result, estimates included.
func TestSampledRunDeterministic(t *testing.T) {
	spec := RunSpec{
		App: "sor", System: SystemNetCache, Scale: 0.25,
		Sampling: &Sampling{Mode: SampleStratified, IntervalRefs: 2048, WarmupRefs: 512, Period: 4, Seed: 11},
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampled run is not bit-deterministic")
	}
}

// TestSampledResultShape checks the sampled-result contract: estimates are
// attached alongside the exact fields (which keep the hybrid run's raw
// values), the measured/total reference split is sane, and the estimate
// means are populated.
func TestSampledResultShape(t *testing.T) {
	spec := RunSpec{
		App: "gauss", System: SystemNetCache, Scale: 0.25, Verify: true,
		Sampling: &Sampling{Mode: SampleStratified, IntervalRefs: 2048, WarmupRefs: 512, Period: 4, Seed: 1},
	}
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Sampled
	if s == nil {
		t.Fatal("sampled run has no Sampled estimates")
	}
	if s.Degraded {
		t.Fatal("test premise broken: run degraded; shrink IntervalRefs")
	}
	if s.Intervals <= 1 {
		t.Fatalf("only %d measured intervals", s.Intervals)
	}
	if s.MeasuredRefs == 0 || s.MeasuredRefs >= s.TotalRefs {
		t.Fatalf("measured/total refs %d/%d not a strict sample", s.MeasuredRefs, s.TotalRefs)
	}
	if s.Cycles.Mean <= 0 || s.MissRatio.Mean <= 0 || s.AvgL2MissLatency.Mean <= 0 {
		t.Fatalf("unpopulated estimates: %+v", s)
	}
	// The exact fields stay raw: Cycles is the hybrid run's engine clock,
	// not the extrapolation.
	if float64(r.Cycles) == s.Cycles.Mean {
		t.Error("exact Cycles field was overwritten by the estimate")
	}
	if r.Raw.Sampling == nil || len(r.Raw.Sampling.Intervals) != s.Intervals {
		t.Error("Raw.Sampling record missing or inconsistent")
	}
	// Accessors prefer the estimate on sampled runs.
	if r.EstimatedCycles() != s.Cycles.Mean || r.EstimatedMissRatio() != s.MissRatio.Mean {
		t.Error("Estimated accessors do not return the sampled estimates")
	}
}

// TestSampledDegradedFallback checks a run too short for one interval
// degrades to whole-run hybrid totals instead of returning nothing.
func TestSampledDegradedFallback(t *testing.T) {
	spec := RunSpec{
		App: "sor", System: SystemNetCache, Scale: 0.06,
		Sampling: &Sampling{Mode: SamplePeriodic, IntervalRefs: 1 << 40},
	}
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sampled == nil || !r.Sampled.Degraded {
		t.Fatalf("huge-interval run did not degrade: %+v", r.Sampled)
	}
	if r.Sampled.Cycles.Mean <= 0 {
		t.Error("degraded run lost the hybrid cycle estimate")
	}
}

// TestSamplingUnknownMode checks a bad mode fails fast, before simulation.
func TestSamplingUnknownMode(t *testing.T) {
	_, err := Run(RunSpec{
		App: "sor", System: SystemNetCache, Scale: 0.06,
		Sampling: &Sampling{Mode: "sometimes"},
	})
	if err == nil || !strings.Contains(err.Error(), "sampling mode") {
		t.Fatalf("unknown mode error = %v", err)
	}
}

// TestSamplingNegativePeriod checks a negative period fails fast, before
// simulation, instead of wrapping to an effectively unbounded period.
func TestSamplingNegativePeriod(t *testing.T) {
	_, err := Run(RunSpec{
		App: "sor", System: SystemNetCache, Scale: 0.06,
		Sampling: &Sampling{Mode: SampleStratified, Period: -1},
	})
	if err == nil || !strings.Contains(err.Error(), "Period") {
		t.Fatalf("negative period error = %v", err)
	}
}

// TestSampledWorkerInvariance pins the parallel fast-forward contract: the
// Result — estimates, confidence intervals and the raw interval record
// included — is byte-identical at every worker count, because rounds freeze
// shared state and replay deferred effects in node-ID order. The reference
// run must actually execute rounds, or the test would vacuously pass.
func TestSampledWorkerInvariance(t *testing.T) {
	run := func(workers int) ([]byte, Result) {
		spec := RunSpec{
			App: "sor", System: SystemDMONU, Scale: 0.25,
			Sampling: &Sampling{
				Mode: SampleStratified, IntervalRefs: 8192,
				WarmupRefs: 1024, Period: 16, Seed: 5, Workers: workers,
			},
		}
		r, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b, r
	}
	ref, r := run(1)
	if r.Raw.Sampling == nil || r.Raw.Sampling.Rounds == 0 {
		t.Fatal("test premise broken: no parallel rounds executed; lengthen the functional stretches")
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if b, _ := run(w); !bytes.Equal(ref, b) {
			t.Errorf("Workers=%d result differs from Workers=1", w)
		}
	}
}

// TestSampledRoundOptOut checks a ring-bearing NetCache run never enters
// round mode: the shared ring is a recency structure whose warm contents
// depend on the fine-grained cross-node insertion interleave, so its
// WarmRoundQuota is zero.
func TestSampledRoundOptOut(t *testing.T) {
	spec := RunSpec{
		App: "sor", System: SystemNetCache, Scale: 0.25,
		Sampling: &Sampling{
			Mode: SampleStratified, IntervalRefs: 8192,
			WarmupRefs: 1024, Period: 16, Seed: 5,
		},
	}
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Raw.Sampling == nil {
		t.Fatal("no sampling record")
	}
	if n := r.Raw.Sampling.Rounds; n != 0 {
		t.Fatalf("ring-bearing netcache executed %d rounds", n)
	}
}

// TestSampledCancellationJoins cancels a sampled run mid-warmup — with
// round members potentially parked off the runnable heap — and checks the
// abort still joins every processor goroutine.
func TestSampledCancellationJoins(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, RunSpec{
		App: "sor", System: SystemDMONU, Scale: 1,
		Sampling: &Sampling{
			Mode: SampleStratified, IntervalRefs: 8192,
			WarmupRefs: 1024, Period: 16, Seed: 5,
		},
	})
	if err == nil {
		t.Skip("run finished before the deadline; nothing to cancel")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked across cancelled sampled run: %d before, %d after", before, n)
	}
}
