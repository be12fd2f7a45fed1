package netcache

import (
	"fmt"
	"math"

	"netcache/internal/machine"
)

// Sampling configures representative-interval sampled simulation: the run is
// divided into epochs of IntervalRefs memory references, one epoch per
// Period is simulated in full detail (preceded by a WarmupRefs detailed
// warmup window), every other reference runs functionally — cache, directory
// and shared-ring state advance, synchronization stays exact, but timing is
// contention-free — and the measured intervals are extrapolated to full-run
// estimates with confidence intervals (Result.Sampled). Sampled runs are
// bit-deterministic: interval placement is a pure function of the spec, so
// results stay content-addressable and cacheable.
//
// The zero value (Mode == "") disables sampling and canonicalizes to the
// pre-sampling spec encoding, so existing store keys are unaffected.
type Sampling struct {
	// Mode selects interval placement: "periodic" measures the last epoch of
	// every period, "stratified" draws the measured epoch's position within
	// each period from Seed.
	Mode string `json:",omitempty"`
	// IntervalRefs is the measured-interval length in machine-wide memory
	// references. 0 means 32768.
	IntervalRefs uint64 `json:",omitempty"`
	// WarmupRefs is the detailed-but-unmeasured window before each measured
	// interval, letting timing state (channels, memory queues, write-buffer
	// pipelines) recover from functional mode. 0 means 4096.
	WarmupRefs uint64 `json:",omitempty"`
	// Period is the sampling period in epochs: one epoch out of every Period
	// is measured. 0 means 16.
	Period int `json:",omitempty"`
	// Intervals bounds measurement density: each time the count of measured
	// intervals reaches a multiple of it, the sampling period doubles, so a
	// fixed budget spreads log-uniformly over a run of any length instead of
	// clustering at its start. 0 means 32; negative disables the bound.
	Intervals int `json:",omitempty"`
	// Seed drives stratified placement.
	Seed uint64 `json:",omitempty"`
	// Workers bounds how many processors advance concurrently inside the
	// functional fast-forward rounds (non-positive: runtime.GOMAXPROCS(0)).
	// Results are byte-identical at every worker count, so Workers trades
	// wall clock only; it is excluded from the spec encoding (and the store
	// key) because it does not parameterize the experiment.
	Workers int `json:"-"`
}

// Sampling mode names.
const (
	SamplePeriodic   = "periodic"
	SampleStratified = "stratified"
)

// Enabled reports whether the spec requests sampled execution.
func (s *Sampling) Enabled() bool { return s != nil && s.Mode != "" }

// withDefaults returns the config normalized exactly as runApp executes it,
// so equivalent spellings canonicalize to one store key.
func (s Sampling) withDefaults() Sampling {
	if s.Mode == SamplePeriodic {
		s.Seed = 0 // periodic placement ignores the seed
	}
	if s.IntervalRefs == 0 {
		s.IntervalRefs = 32768
	}
	if s.WarmupRefs == 0 {
		s.WarmupRefs = 4096
	}
	if s.Period == 0 {
		s.Period = 16
	}
	if s.Intervals == 0 {
		s.Intervals = 32
	} else if s.Intervals < 0 {
		s.Intervals = -1
	}
	return s
}

// validate checks an enabled config: a known mode and a non-negative Period
// (plan would otherwise wrap a negative one to 2^64-1).
func (s *Sampling) validate() error {
	if !s.Enabled() {
		return nil
	}
	if s.Mode != SamplePeriodic && s.Mode != SampleStratified {
		return fmt.Errorf("netcache: unknown sampling mode %q (want %q or %q)", s.Mode, SamplePeriodic, SampleStratified)
	}
	if s.Period < 0 {
		return fmt.Errorf("netcache: sampling Period = %d is negative", s.Period)
	}
	return nil
}

// plan converts a validated public config to the machine-layer plan.
func (s *Sampling) plan() machine.SamplePlan {
	d := s.withDefaults()
	maxIntervals := d.Intervals
	if maxIntervals < 0 {
		maxIntervals = 0 // machine layer: 0 = unlimited
	}
	return machine.SamplePlan{
		IntervalRefs: d.IntervalRefs,
		WarmupRefs:   d.WarmupRefs,
		Period:       uint64(d.Period),
		Stratified:   d.Mode == SampleStratified,
		Seed:         d.Seed,
		MaxIntervals: maxIntervals,
		Workers:      d.Workers,
	}
}

// Estimate is a sampled point estimate with an error bar: Mean ± Err is the
// ~95% confidence interval from between-interval variance (1.96·s/√n).
type Estimate struct {
	Mean float64
	Err  float64
}

// SampledEstimates carries the extrapolated full-run metrics of a sampled
// run. It is attached alongside — never instead of — the exact Result
// fields, which keep their raw hybrid (functional + detailed) values.
type SampledEstimates struct {
	Mode         string
	Intervals    int
	TotalRefs    uint64
	MeasuredRefs uint64
	// Degraded marks a run too short to complete one measured interval: the
	// estimates then come from the whole-run hybrid totals, without error
	// bars worth trusting.
	Degraded bool `json:",omitempty"`

	Cycles              Estimate // extrapolated run time, pcycles
	MissRatio           Estimate // second-level read misses per read
	SharedCacheHitRate  Estimate
	AvgL2MissLatency    Estimate // pcycles
	ReadStall           Estimate // extrapolated total read-stall pcycles
	ReadLatencyFraction Estimate
	SyncFraction        Estimate
}

// accum accumulates per-interval rates for mean/CI extraction.
type accum struct {
	n    int
	sum  float64
	sum2 float64
}

func (a *accum) add(x float64) {
	a.n++
	a.sum += x
	a.sum2 += x * x
}

// estimate returns the mean scaled by k with the 95% CI half-width.
func (a *accum) estimate(k float64) Estimate {
	if a.n == 0 {
		return Estimate{}
	}
	mean := a.sum / float64(a.n)
	var err float64
	if a.n >= 2 {
		v := (a.sum2 - float64(a.n)*mean*mean) / float64(a.n-1)
		if v > 0 {
			err = 1.96 * math.Sqrt(v/float64(a.n))
		}
	}
	return Estimate{Mean: mean * k, Err: err * k}
}

// ratio pools a per-interval ratio: the point estimate is the ratio of sums
// (refs-weighted, so short intervals don't dominate) and the error bar comes
// from the between-interval spread of the individual ratios.
type ratio struct {
	num, den float64
	per      accum
}

func (r *ratio) add(num, den float64) {
	if den > 0 {
		r.num += num
		r.den += den
		r.per.add(num / den)
	}
}

func (r *ratio) estimate(k float64) Estimate {
	if r.den == 0 {
		return Estimate{}
	}
	return Estimate{Mean: k * r.num / r.den, Err: k * r.per.estimate(1).Err}
}

// buildEstimates extrapolates a sampled run to full-run estimates.
//
// Counter metrics (miss ratio, shared-cache hit rate) come from the hybrid
// run's own totals: functional mode maintains cache/directory/ring state
// exactly, so those counters are near-exact regardless of how few intervals
// were measured — the intervals only supply the error bars.
//
// The run-time estimate corrects the functional clock instead of
// extrapolating cycles-per-reference directly: the hybrid clock is already
// faithful for busy cycles, cache hits and synchronization waits, so the one
// component to substitute is contention on second-level misses — the
// functional stretches' contention-free per-miss latency is replaced by the
// contended per-miss latency the measured intervals observed.
//
// Timing-only metrics (miss latency, stall fractions) pool the measured
// intervals, where the detailed machine was live.
func buildEstimates(ss *machine.SampleStats, rs machine.RunStats) *SampledEstimates {
	mode := SamplePeriodic
	if ss.Plan.Stratified {
		mode = SampleStratified
	}
	est := &SampledEstimates{
		Mode:         mode,
		Intervals:    len(ss.Intervals),
		TotalRefs:    ss.TotalRefs,
		MeasuredRefs: ss.MeasuredRefs,
		Degraded:     ss.Degraded,
	}
	procs := float64(rs.Procs)
	var miss, shr, lat, rlf, syf ratio
	for i := range ss.Intervals {
		iv := &ss.Intervals[i]
		if iv.Refs == 0 || iv.Cycles <= 0 {
			continue
		}
		miss.add(float64(iv.LocalMiss+iv.RemoteMiss), float64(iv.Reads))
		shr.add(float64(iv.SharedHits), float64(iv.RemoteMiss))
		lat.add(float64(iv.L2MissLat), float64(iv.LocalMiss+iv.RemoteMiss))
		// iv.Cycles is already processor-summed, matching the summed stalls.
		rlf.add(float64(iv.ReadStall), float64(iv.Cycles))
		syf.add(float64(iv.SyncStall), float64(iv.Cycles))
	}
	// Run time: the functional clock is already faithful for busy cycles,
	// cache hits and synchronization waits — the one component it omits is
	// contention on second-level misses. Substitute the calibrated contended
	// per-miss latency for the contention-free one the functional stretches
	// charged. Pooling Ld per miss makes storm intervals dominate the
	// calibration exactly as their misses dominate the full run; a per-clock
	// ratio has no such weighting and one burst interval paired with a quiet
	// functional stretch can triple it. With no measured or functional
	// misses the correction drops and the estimate degrades to the hybrid
	// clock.
	ld := lat.estimate(1)
	cycles := float64(ss.DetCycles) + float64(ss.FuncCycles)
	var cycErr float64
	if ld.Mean > 0 && ss.FuncMisses > 0 {
		lf := float64(ss.FuncMissLat) / float64(ss.FuncMisses)
		cycles += float64(ss.FuncMisses) * (ld.Mean - lf)
		cycErr = float64(ss.FuncMisses) * ld.Err
	}
	est.Cycles = Estimate{Mean: cycles / procs, Err: cycErr / procs}

	// Counter metrics: hybrid totals for the point estimate, interval spread
	// for the error bar.
	t := rs.Totals()
	est.MissRatio = Estimate{Err: miss.estimate(1).Err}
	if t.Reads > 0 {
		est.MissRatio.Mean = float64(t.LocalMiss+t.RemoteMiss) / float64(t.Reads)
	}
	est.SharedCacheHitRate = Estimate{Mean: rs.SharedHitRate(), Err: shr.estimate(1).Err}

	// Timing metrics: measured intervals only.
	est.AvgL2MissLatency = lat.estimate(1)
	est.ReadLatencyFraction = rlf.estimate(1)
	est.SyncFraction = syf.estimate(1)
	est.ReadStall = Estimate{
		Mean: est.ReadLatencyFraction.Mean * est.Cycles.Mean * procs,
		Err:  est.ReadLatencyFraction.Err * est.Cycles.Mean * procs,
	}
	return est
}

// EstimatedCycles returns the best available run-time figure: the sampled
// extrapolation when present, the exact count otherwise. The figure helpers
// in internal/exp use the Estimated accessors so sweeps work identically in
// both modes.
func (r Result) EstimatedCycles() float64 {
	if r.Sampled != nil {
		return r.Sampled.Cycles.Mean
	}
	return float64(r.Cycles)
}

// EstimatedSharedHitRate returns the sampled shared-cache hit-rate estimate,
// or the exact rate for full runs.
func (r Result) EstimatedSharedHitRate() float64 {
	if r.Sampled != nil {
		return r.Sampled.SharedCacheHitRate.Mean
	}
	return r.SharedCacheHitRate
}

// EstimatedAvgL2MissLatency returns the sampled mean miss-latency estimate,
// or the exact value for full runs.
func (r Result) EstimatedAvgL2MissLatency() float64 {
	if r.Sampled != nil {
		return r.Sampled.AvgL2MissLatency.Mean
	}
	return r.AvgL2MissLatency
}

// EstimatedMissRatio returns the sampled miss-ratio estimate (second-level
// read misses per read), or the exact ratio for full runs.
func (r Result) EstimatedMissRatio() float64 {
	if r.Sampled != nil {
		return r.Sampled.MissRatio.Mean
	}
	if r.Reads == 0 {
		return 0
	}
	return float64(r.L2Misses) / float64(r.Reads)
}

// EstimatedReadStall returns the sampled total read-stall extrapolation, or
// the exact sum for full runs.
func (r Result) EstimatedReadStall() float64 {
	if r.Sampled != nil {
		return r.Sampled.ReadStall.Mean
	}
	return float64(r.ReadStall)
}

// EstimatedReadLatencyFraction returns the sampled read-stall fraction of
// run time, or the exact fraction for full runs.
func (r Result) EstimatedReadLatencyFraction() float64 {
	if r.Sampled != nil {
		return r.Sampled.ReadLatencyFraction.Mean
	}
	return r.ReadLatencyFraction
}
