package machine

import (
	"netcache/internal/mem"
	"netcache/internal/proto/counter"
	"netcache/internal/sim"
)

// This file implements interval-structured (sampled) execution: the run is
// divided into epochs of IntervalRefs demand references, one epoch per
// Period is simulated in full detail between two counter checkpoints, a
// detailed-but-unmeasured warmup window precedes each measured epoch so
// timing state (channels, memory queues, drain pipelines) recovers, and
// every other reference runs functionally — cache/directory/ring state
// advances through the protocol's Warmer, but no engine event is scheduled
// and no channel is arbitrated. Synchronization (barriers, locks) stays
// detailed in every phase, so the interleaving remains deterministic and
// application results stay correct.

// SamplePlan configures interval-structured execution.
type SamplePlan struct {
	// IntervalRefs is the measured-interval (epoch) length in machine-wide
	// demand references.
	IntervalRefs uint64
	// WarmupRefs is the detailed-but-unmeasured window executed immediately
	// before each measured interval.
	WarmupRefs uint64
	// Period is the sampling period in epochs: one epoch out of every Period
	// is measured.
	Period uint64
	// Stratified selects seed-driven placement of the measured epoch within
	// each period; false always measures the period's last epoch.
	Stratified bool
	// Seed drives stratified placement. Placement is a pure function of
	// (Seed, stratum index), so a sampled run is bit-deterministic.
	Seed uint64
	// MaxIntervals, when positive, bounds measurement density: each time the
	// interval count reaches a multiple of it, the sampling period doubles.
	// A fixed interval budget then spreads log-uniformly over a run of any
	// length — long runs get the speedup of sparse sampling without losing
	// late-phase coverage to a hard cutoff.
	MaxIntervals int
	// Workers bounds how many processors execute a functional round
	// concurrently (non-positive: runtime.GOMAXPROCS(0)). Results are
	// byte-identical at every worker count — rounds freeze shared state and
	// replay deferred effects in node-ID order — so Workers trades wall clock
	// only. Excluded from JSON: it parameterizes the execution strategy, not
	// the experiment.
	Workers int `json:"-"`
}

// Warmer is the protocol half of functional warmup: state-only transaction
// handlers that keep caches, directories and the shared ring current without
// arbitrating for channels or scheduling events. A protocol must implement
// it for the machine to accept a SamplePlan.
//
// The read and drain handlers are written for round isolation: the calling
// node may be executing concurrently with other nodes against frozen shared
// state, so they may read shared protocol structures (directory, ring
// presence) but must write only node-local state, count into
// n.RoundCounters(), and record every shared-state mutation as an effect via
// n.Defer. Outside a parallel round Defer applies the effect at once, so the
// same handlers serve the sequential fast-forward as a round of one node.
type Warmer interface {
	// WarmRead services a second-level read miss functionally; the returned
	// latency is the contention-free estimate charged to the processor.
	WarmRead(n *Node, addr Addr) (lat Time, st mem.State)
	// WarmDrain performs the coherence state transition for one write-buffer
	// entry (update delivery / invalidation / ownership) without timing.
	WarmDrain(n *Node, e mem.WBEntry)
	// WarmDrainLatency is the contention-free cost charged per drained entry
	// when a fence or a full buffer forces a functional drain.
	WarmDrainLatency() Time
	// WarmApply performs one protocol effect recorded through n.Defer, with
	// full mutation rights: at once outside a round, or in node-ID order
	// after every round participant has parked.
	WarmApply(n *Node, e WarmEffect)
	// WarmMerge folds a node's scratch counter bank into the protocol's
	// counters (at round close and when the run's statistics are collected).
	WarmMerge(cs *counter.Set)
	// WarmRoundQuota bounds how many references one participant may execute
	// per round against frozen shared state. Deferred effects are invisible
	// to the other participants until the round closes, so a protocol whose
	// warm state depends on the fine-grained cross-node interleave must keep
	// rounds short (WarmRoundMinQuota) or — when staleness within even the
	// shortest round distorts its totals — return 0 to opt out of rounds
	// entirely. Protocols whose deferred effects replay losslessly return
	// WarmRoundMaxQuota.
	WarmRoundQuota() uint64
}

// WarmEffectKind discriminates the shared-state mutations a functional step
// records through Node.Defer.
type WarmEffectKind uint8

const (
	// EffSharerAdd/EffSharerDrop are machine-level sharer-set bookkeeping,
	// applied by the machine itself.
	EffSharerAdd WarmEffectKind = iota
	EffSharerDrop
	// EffEvict is the state half of an L2 victim's eviction (directory clear,
	// writeback accounting); Aux holds the victim's cache state.
	EffEvict
	// EffUpdate is an update-coherence delivery (update protocols; T is the
	// writer's clock at drain time).
	EffUpdate
	// EffInval is an I-SPEED invalidation broadcast plus ownership transfer.
	EffInval
	// EffRingHit/EffRingMiss replay a shared-ring probe: recency touch on a
	// hit, miss bookkeeping plus insertion (Aux holds the home) on a miss.
	// Block carries the full probed address.
	EffRingHit
	EffRingMiss
	// EffForward replays an I-SPEED owner forward: the owner (Aux) downgrades
	// its copy, or the forward-miss fallback is counted.
	EffForward
)

// WarmEffect is one shared-state mutation recorded by a functional step.
type WarmEffect struct {
	Kind  WarmEffectKind
	Block Addr
	T     Time
	Aux   int64
}

// apply performs one effect recorded by node n: sharer-set bookkeeping here,
// everything else through the protocol's WarmApply.
func (m *Machine) apply(n *Node, e WarmEffect) {
	switch e.Kind {
	case EffSharerAdd:
		m.addSharer(e.Block, n.ID)
	case EffSharerDrop:
		m.dropSharer(e.Block, n.ID)
	default:
		m.warm.WarmApply(n, e)
	}
}

// nodeDelta is the slim per-node snapshot the sampler checkpoints with: only
// the scalar counters DeltaSince differences, excluding the ~400-byte miss
// histogram a full NodeStats copy would drag along. At P=256 with thousands
// of checkpoints per run, the full copies dominated the allocation profile.
type nodeDelta struct {
	Reads, Writes              uint64
	L1Hits, WBHits, L2Hits     uint64
	LocalMiss, RemoteMiss      uint64
	SharedHits, UpdatesIssued  uint64
	ReadStall, WriteStall      Time
	SyncStall, Busy, L2MissLat Time
}

// slimCheckpoint is the sampler-internal checkpoint: a reused buffer, so a
// steady-state run checkpoints without allocating.
type slimCheckpoint struct {
	Refs  uint64
	Clock Time
	Nodes []nodeDelta
}

// mark snapshots the measurement state into the reused checkpoint buffer.
func (s *sampler) mark(refs uint64) {
	cp := &s.cp
	cp.Refs = refs
	cp.Clock = s.m.Eng.SumClock()
	if cp.Nodes == nil {
		cp.Nodes = make([]nodeDelta, len(s.m.Nodes))
	}
	for i, n := range s.m.Nodes {
		st := &n.St
		cp.Nodes[i] = nodeDelta{
			Reads: st.Reads, Writes: st.Writes,
			L1Hits: st.L1Hits, WBHits: st.WBHits, L2Hits: st.L2Hits,
			LocalMiss: st.LocalMiss, RemoteMiss: st.RemoteMiss,
			SharedHits: st.SharedHits, UpdatesIssued: st.UpdatesIssued,
			ReadStall: st.ReadStall, WriteStall: st.WriteStall,
			SyncStall: st.SyncStall, Busy: st.Busy, L2MissLat: st.L2MissLat,
		}
	}
}

// delta measures the interval from the current checkpoint buffer to now.
func (s *sampler) delta(index int) Interval {
	cp := &s.cp
	iv := Interval{Index: index, StartRef: cp.Refs, Cycles: s.m.Eng.SumClock() - cp.Clock}
	for i, n := range s.m.Nodes {
		a, b := &n.St, &cp.Nodes[i]
		iv.Reads += a.Reads - b.Reads
		iv.Writes += a.Writes - b.Writes
		iv.L1Hits += a.L1Hits - b.L1Hits
		iv.WBHits += a.WBHits - b.WBHits
		iv.L2Hits += a.L2Hits - b.L2Hits
		iv.LocalMiss += a.LocalMiss - b.LocalMiss
		iv.RemoteMiss += a.RemoteMiss - b.RemoteMiss
		iv.SharedHits += a.SharedHits - b.SharedHits
		iv.ReadStall += a.ReadStall - b.ReadStall
		iv.WriteStall += a.WriteStall - b.WriteStall
		iv.SyncStall += a.SyncStall - b.SyncStall
		iv.Busy += a.Busy - b.Busy
		iv.L2MissLat += a.L2MissLat - b.L2MissLat
		iv.UpdatesIssued += a.UpdatesIssued - b.UpdatesIssued
	}
	return iv
}

// Checkpoint is a snapshot of the run's measurement state at an interval
// boundary: the machine-wide reference count, the processor-summed clock,
// and a dense copy of every node's counters. NodeStats is a fixed-size value
// struct (the histogram is an inline array), so the copy is P struct
// assignments — no per-counter work.
type Checkpoint struct {
	Refs uint64
	// Clock is Engine.SumClock at the checkpoint: processor-summed pcycles,
	// the skew-immune progress measure (functional bursts run one processor
	// far ahead of the parked rest, so max-style clocks jump erratically at
	// reference-count boundaries).
	Clock Time
	Nodes []NodeStats
}

// Checkpoint captures the measurement state at the current point of
// execution, letting measurement resume (via DeltaSince) at an interval
// start. Exported so custom harnesses can measure their own windows.
func (m *Machine) Checkpoint(refs uint64) Checkpoint {
	cp := Checkpoint{Refs: refs, Clock: m.Eng.SumClock(), Nodes: make([]NodeStats, len(m.Nodes))}
	for i, n := range m.Nodes {
		cp.Nodes[i] = n.St
	}
	return cp
}

// Interval is the measured delta between a checkpoint and a later point of
// the same run.
type Interval struct {
	Index    int
	StartRef uint64
	Refs     uint64
	// Cycles is the interval's processor-summed clock progress (SumClock
	// delta): P × the machine's average per-processor advance, in pcycles.
	Cycles Time

	// FuncRefs/FuncCycles/FuncSync describe the functional stretch that
	// preceded this interval's warmup: a nearby program region executed under
	// contention-free timing, recorded for diagnostics (per-interval
	// detail/functional comparisons). FuncSync separates waiting cycles,
	// which scale with work imbalance rather than references.
	FuncRefs   uint64
	FuncCycles Time
	FuncSync   Time

	Reads      uint64
	Writes     uint64
	L1Hits     uint64
	WBHits     uint64
	L2Hits     uint64
	LocalMiss  uint64
	RemoteMiss uint64
	SharedHits uint64

	ReadStall  Time
	WriteStall Time
	SyncStall  Time
	Busy       Time
	L2MissLat  Time

	UpdatesIssued uint64
}

// DeltaSince measures the interval from cp to the current point. Refs is
// left for the caller to fill (the sampler tracks references machine-wide).
func (m *Machine) DeltaSince(cp Checkpoint, index int) Interval {
	iv := Interval{Index: index, StartRef: cp.Refs, Cycles: m.Eng.SumClock() - cp.Clock}
	for i, n := range m.Nodes {
		a, b := &n.St, &cp.Nodes[i]
		iv.Reads += a.Reads - b.Reads
		iv.Writes += a.Writes - b.Writes
		iv.L1Hits += a.L1Hits - b.L1Hits
		iv.WBHits += a.WBHits - b.WBHits
		iv.L2Hits += a.L2Hits - b.L2Hits
		iv.LocalMiss += a.LocalMiss - b.LocalMiss
		iv.RemoteMiss += a.RemoteMiss - b.RemoteMiss
		iv.SharedHits += a.SharedHits - b.SharedHits
		iv.ReadStall += a.ReadStall - b.ReadStall
		iv.WriteStall += a.WriteStall - b.WriteStall
		iv.SyncStall += a.SyncStall - b.SyncStall
		iv.Busy += a.Busy - b.Busy
		iv.L2MissLat += a.L2MissLat - b.L2MissLat
		iv.UpdatesIssued += a.UpdatesIssued - b.UpdatesIssued
	}
	return iv
}

// SampleStats is the sampled-run record attached to RunStats: the effective
// plan, the measured intervals, and the clock/reference partition
// extrapolation needs. The run's cycles split exactly into DetCycles
// (detailed warmup + measured intervals) and FuncCycles (functional
// stretches); likewise FuncRefs + detailed references = TotalRefs.
type SampleStats struct {
	Plan         SamplePlan
	TotalRefs    uint64
	MeasuredRefs uint64
	// FuncRefs/FuncCycles total the functional stretches; DetCycles totals
	// the detailed (warmup + measured) stretches. Cycle totals are
	// processor-summed (SumClock deltas): DetCycles + FuncCycles is P × the
	// hybrid run's average per-processor clock.
	FuncRefs   uint64
	FuncCycles Time
	DetCycles  Time
	// FuncMisses/FuncMissLat total the second-level read misses serviced in
	// functional stretches and the contention-free latency charged for them.
	// Extrapolation substitutes the calibrated contended per-miss latency of
	// the measured intervals for FuncMissLat/FuncMisses — the one component
	// the functional clock deliberately omits.
	FuncMisses  uint64
	FuncMissLat Time
	// Rounds counts the parallel functional rounds executed (0 when the
	// protocol opts out via WarmRoundQuota or the stretches were too short);
	// RoundRefs totals the references executed inside them. Diagnostic only:
	// both are invariant under SamplePlan.Workers.
	Rounds    uint64 `json:",omitempty"`
	RoundRefs uint64 `json:",omitempty"`
	// Degraded marks a run too short to complete a single measured interval;
	// Intervals then holds one whole-run delta so estimators still have
	// data, but its figures are hybrid (functional + detailed), not sampled.
	Degraded  bool `json:",omitempty"`
	Intervals []Interval
}

// refMode classifies how one demand reference executes.
type refMode uint8

const (
	refDetailed   refMode = iota // full timing path
	refFunctional                // state advances, contention-free latency
)

// samplePhase is the sampler's position within the interval schedule.
type samplePhase uint8

const (
	phaseFunctional samplePhase = iota // between intervals: functional warmup
	phaseWarm                          // detailed, unmeasured
	phaseMeasure                       // detailed, between checkpoints
)

// warmYieldEvery bounds a functional burst: every this many machine-wide
// references the running processor yields so the engine rotates to the
// lowest-clock processor. Clocks then advance in near-lockstep, as the
// detailed engine keeps them — without the bound, one processor runs an
// entire stretch ahead of the parked rest, and the artificial skew resolves
// as phantom sync stall inside whichever measured interval contains the next
// barrier, biasing the calibration. Fine-grained rotation also interleaves
// the processors' shared-ring insertions the way the detailed engine does,
// which the ring's replacement state needs to stay warm. The yield point
// doubles as the cancellation poll.
const warmYieldEvery = 16

// A yield usually passes the baton to another processor, a goroutine switch
// that dominates functional-mode wall clock: the state-only reference
// service is far cheaper than the switch. Deep inside a
// functional stretch the fine interleaving buys nothing durable — the ring
// replacement state it maintains is overwritten many times before the next
// measured interval — so rotation drops to warmYieldCoarse there and
// returns to warmYieldEvery for the last warmConvergeRefs before the next
// detailed phase, a window long enough to turn the ring's replacement state
// over and re-converge the interleaving-sensitive order. Both strides are
// pure functions of the reference count, so placement stays deterministic.
const (
	warmYieldCoarse  = 256
	warmConvergeRefs = 32768
)

// cancelPollEvery throttles the cancellation poll within functional
// stretches; the detailed engine polls on its own schedule.
const cancelPollEvery = 1024

type sampler struct {
	m    *Machine
	plan SamplePlan

	phase     samplePhase
	refs      uint64
	next      uint64 // reference count of the next phase transition
	nextYield uint64 // next functional reference that is a yield candidate
	measureAt uint64
	endAt     uint64
	stratum   uint64 // in epochs of period×IntervalRefs at the CURRENT period
	strataOff uint64 // epoch offset of the current period regime
	period    uint64 // current period (doubles when the budget rolls over)

	cp        slimCheckpoint
	intervals []Interval

	// Round (parallel functional fast-forward) state. workers bounds the
	// concurrent participants; roundQuota is the protocol's WarmRoundQuota
	// (0: rounds disabled); roundLead marks the node orchestrating the
	// current round; detached holds the member processors taken off the
	// runnable heap; doneCh is the buffered park-notification channel (one
	// slot per processor, so a parking member never blocks on it).
	workers    int
	roundQuota uint64
	roundLead  *Node
	detached   []*sim.Proc
	doneCh     chan struct{}
	rounds     uint64
	roundRefs  uint64

	// Clock/reference partition bookkeeping. The mark* fields anchor the
	// stretch currently executing; the accumulators total closed stretches.
	markClock      Time
	markRefs       uint64
	markSync       Time
	markMisses     uint64
	markMissLat    Time
	funcCycles     Time
	funcRefs       uint64
	funcMisses     uint64
	funcMissLat    Time
	detCycles      Time
	lastFuncCycles Time
	lastFuncRefs   uint64
	lastFuncSync   Time
}

// sumSync totals SyncStall across nodes: the machine-wide waiting-cycle
// counter the work/wait split needs at stretch boundaries.
func (s *sampler) sumSync() Time {
	var t Time
	for _, n := range s.m.Nodes {
		t += n.St.SyncStall
	}
	return t
}

// sumMiss totals second-level read misses and their accumulated latency
// across nodes, for the per-stretch miss accounting.
func (s *sampler) sumMiss() (uint64, Time) {
	var n uint64
	var lat Time
	for _, nd := range s.m.Nodes {
		n += nd.St.LocalMiss + nd.St.RemoteMiss
		lat += nd.St.L2MissLat
	}
	return n, lat
}

// mix64 is SplitMix64's finalizer over (seed, x): the stratified-placement
// PRNG. A pure function of its inputs, so interval placement — and with it
// the whole sampled run — is content-addressable by the spec alone.
func mix64(seed, x uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(x+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// schedule places the next measured epoch within the current stratum,
// relative to the epoch offset of the current period regime.
func (s *sampler) schedule() {
	per, iv := s.period, s.plan.IntervalRefs
	k := per - 1
	if s.plan.Stratified {
		// strataOff+stratum is distinct for every stratum ever scheduled, so
		// placement stays a pure function of the spec across regime changes.
		k = mix64(s.plan.Seed, s.strataOff+s.stratum) % per
	}
	s.measureAt = (s.strataOff + s.stratum*per + k) * iv
	s.endAt = s.measureAt + iv
	warmAt := uint64(0)
	if s.plan.WarmupRefs < s.measureAt {
		warmAt = s.measureAt - s.plan.WarmupRefs
	}
	if warmAt < s.refs {
		warmAt = s.refs
	}
	s.phase = phaseFunctional
	s.next = warmAt
	s.stratum++
}

// step counts and classifies the next demand reference. Called from app
// context before the reference is serviced, so a checkpoint taken on a phase
// boundary cleanly separates measured references from the rest. Outside a
// round it runs under engine exclusivity; a round participant touches only
// its own node's round quota and returns without reaching the shared state
// below the round block.
func (s *sampler) step(p *sim.Proc, nd *Node) refMode {
	if nd.inRound {
		for nd.inRound {
			if nd.roundLeft > 0 {
				nd.roundLeft--
				nd.roundRefs++
				return refFunctional
			}
			if nd == s.roundLead {
				// Quota spent: close the round, then count this reference
				// through the normal path below.
				s.collectRound(p)
				break
			}
			// Member quota spent: park until the leader closes the round (or
			// redrafts this processor into a later one with fresh quota).
			s.roundPause(p)
		}
	}
	r := s.refs
	s.refs++
	if r >= s.next {
		s.advance(r)
	}
	switch s.phase {
	case phaseWarm, phaseMeasure:
		return refDetailed
	default:
		// One compare on the per-reference fast path; the stride logic
		// lives behind it.
		if r >= s.nextYield {
			s.yieldPoint(r, p, nd)
		}
		return refFunctional
	}
}

// yieldPoint rotates processors and polls cancellation during engine-free
// stretches, then arms the fast-path threshold for the next candidate. On a
// failed run the Invoke unwinds this processor and the engine then unwinds
// the rest via poison; the no-op service never executes. Deep inside a
// functional stretch it launches a parallel round instead of yielding.
func (s *sampler) yieldPoint(r uint64, p *sim.Proc, nd *Node) {
	stride := uint64(warmYieldEvery)
	if s.next-r > warmConvergeRefs {
		stride = warmYieldCoarse
	}
	s.nextYield = (r/stride + 1) * stride
	if r%stride != 0 {
		return
	}
	if r%cancelPollEvery == 0 && s.m.Eng.CheckCancel() {
		p.Invoke(func() {})
		return
	}
	if stride == warmYieldCoarse && s.tryRound(r, nd) {
		// This processor now leads a round; its next steps consume the round
		// quota without engine handoffs.
		return
	}
	p.Yield()
}

// Round sizing: a participant's quota is capped so rounds close frequently
// enough to redraft processors that change phase, and a round below the
// minimum quota is not worth its collection overhead. Protocols pick their
// point on this scale through WarmRoundQuota.
const (
	// WarmRoundMaxQuota is the per-node round budget for protocols whose
	// deferred effects replay losslessly (update coherence: deliveries
	// change data, not hit/miss state).
	WarmRoundMaxQuota = 2048
	// WarmRoundMinQuota is the shortest round worth its collection
	// overhead — the budget for protocols where in-round staleness skews
	// totals that fine interleaving would keep honest (e.g. deferred
	// invalidations leaving stale copies readable).
	WarmRoundMinQuota = 256
)

// roundEffectsCap bounds one participant's deferred-effect buffer: reaching
// it retires the node's remaining quota, keeping a round's live effect
// memory at ~8KB per node no matter how miss-heavy the access pattern.
const roundEffectsCap = 256

// tryRound attempts to start a parallel functional round led by nd's
// processor: every resumable processor is detached from the engine's runnable
// heap and becomes a member, each participant gets an equal reference quota
// sized so the round cannot reach the fine-rotation convergence window before
// the next detailed phase, and the leader keeps running (its own steps now
// draw on its quota). Members execute on demand when the leader collects.
func (s *sampler) tryRound(r uint64, nd *Node) bool {
	if s.roundQuota < WarmRoundMinQuota {
		return false
	}
	headroom := s.next - warmConvergeRefs - r
	s.detached = s.m.Eng.DetachRunnable(s.detached[:0])
	members := s.detached
	if len(members) == 0 {
		return false
	}
	quota := headroom / uint64(len(members)+1)
	if quota > s.roundQuota {
		quota = s.roundQuota
	}
	if quota < WarmRoundMinQuota {
		s.m.Eng.Reattach(members)
		s.detached = s.detached[:0]
		return false
	}
	for _, mp := range members {
		mn := s.m.Nodes[mp.ID]
		mn.inRound = true
		mn.roundLeft = quota
		mn.roundRefs = 0
	}
	nd.inRound = true
	nd.roundLeft = quota
	nd.roundRefs = 0
	s.roundLead = nd
	return true
}

// roundPause parks a member processor at a round boundary (quota spent, sync
// point, or body exit): it signals the collector and blocks until released —
// by the engine after the round closes, or by a later round redrafting it.
func (s *sampler) roundPause(p *sim.Proc) {
	s.doneCh <- struct{}{}
	p.Park()
}

// collectRound closes the round its caller leads: members are released in ID
// order onto at most `workers` concurrent slots and run until they park, then
// — with every participant quiescent — their deferred effects are replayed
// and scratch counters merged in strict node-ID order, making the final state
// a pure function of the round composition, independent of the worker count
// and of the actual interleaving. Runs in the leader's app context; the
// leader holds the baton throughout, so no scheduler runs meanwhile.
func (s *sampler) collectRound(p *sim.Proc) {
	members := s.detached
	slots := s.workers
	outstanding := 0
	for _, mp := range members {
		if slots == 0 {
			<-s.doneCh
			outstanding--
			slots++
		}
		mp.Release()
		slots--
		outstanding++
	}
	for ; outstanding > 0; outstanding-- {
		<-s.doneCh
	}
	// Quiescent: replay and merge deterministically, node-ID order.
	m := s.m
	var total uint64
	for _, pn := range m.Nodes {
		if !pn.inRound {
			continue
		}
		pn.inRound = false
		for _, e := range pn.effects {
			m.apply(pn, e)
		}
		pn.effects = pn.effects[:0]
		m.warm.WarmMerge(&pn.scratch)
		pn.scratch = counter.Set{}
		total += pn.roundRefs
		pn.roundRefs = 0
		pn.roundLeft = 0
	}
	s.refs += total
	s.rounds++
	s.roundRefs += total
	s.roundLead = nil
	m.Eng.Reattach(members)
	s.detached = s.detached[:0]
	// Fine rotation resumes at the next step; the members' advanced clocks
	// decide who runs.
	s.nextYield = 0
	if m.Eng.CheckCancel() {
		p.Invoke(func() {})
	}
}

// roundStop ends the caller's round participation before an engine
// interaction (synchronization service or body exit): a leader collects the
// round it leads; a member parks until the leader closes it.
func (s *sampler) roundStop(nd *Node, p *sim.Proc) {
	for nd.inRound {
		if nd == s.roundLead {
			s.collectRound(p)
			return
		}
		s.roundPause(p)
	}
}

// procExit runs as a processor's body returns or unwinds. A processor
// finishing inside a round must not touch the engine until the round closes;
// afterwards the normal exit path (or panic propagation) proceeds.
func (s *sampler) procExit(nd *Node, p *sim.Proc) {
	s.roundStop(nd, p)
}

func (s *sampler) advance(r uint64) {
	for r >= s.next {
		switch s.phase {
		case phaseFunctional:
			now, sync := s.m.Eng.SumClock(), s.sumSync()
			mi, ml := s.sumMiss()
			s.lastFuncCycles = now - s.markClock
			s.lastFuncRefs = r - s.markRefs
			s.lastFuncSync = sync - s.markSync
			s.funcCycles += s.lastFuncCycles
			s.funcRefs += s.lastFuncRefs
			s.funcMisses += mi - s.markMisses
			s.funcMissLat += ml - s.markMissLat
			s.markClock, s.markRefs, s.markSync = now, r, sync
			s.markMisses, s.markMissLat = mi, ml
			s.phase = phaseWarm
			s.next = s.measureAt
		case phaseWarm:
			s.mark(r)
			s.phase = phaseMeasure
			s.next = s.endAt
		case phaseMeasure:
			iv := s.delta(len(s.intervals))
			iv.Refs = r - s.cp.Refs
			iv.FuncRefs, iv.FuncCycles, iv.FuncSync = s.lastFuncRefs, s.lastFuncCycles, s.lastFuncSync
			s.intervals = append(s.intervals, iv)
			now := s.m.Eng.SumClock()
			s.detCycles += now - s.markClock
			s.markClock, s.markRefs, s.markSync = now, r, s.sumSync()
			s.markMisses, s.markMissLat = s.sumMiss()
			// Detailed execution moved the write buffers without maintaining
			// the functional drain bounds; recompute them on first use.
			for _, nd := range s.m.Nodes {
				nd.warmNext = 0
			}
			if mi := s.plan.MaxIntervals; mi > 0 && len(s.intervals)%mi == 0 {
				// Budget rollover: rebase the schedule at the current epoch
				// and double the period, so the same interval budget covers
				// the next, twice-as-long span of the run.
				s.strataOff += s.stratum * s.period
				s.stratum = 0
				s.period *= 2
			}
			s.schedule()
		}
	}
}

// finish closes out the schedule at end of run and builds the record.
func (s *sampler) finish() *SampleStats {
	if s.phase == phaseMeasure {
		// Partial final interval: keep it when it covers enough of an epoch
		// to give a stable rate.
		refs := s.refs - s.cp.Refs
		if refs > 0 && refs >= s.plan.IntervalRefs/4 {
			iv := s.delta(len(s.intervals))
			iv.Refs = refs
			iv.FuncRefs, iv.FuncCycles, iv.FuncSync = s.lastFuncRefs, s.lastFuncCycles, s.lastFuncSync
			s.intervals = append(s.intervals, iv)
		}
	}
	// Close the trailing stretch so the clock partition is exact.
	now := s.m.Eng.SumClock()
	switch s.phase {
	case phaseFunctional:
		mi, ml := s.sumMiss()
		s.funcCycles += now - s.markClock
		s.funcRefs += s.refs - s.markRefs
		s.funcMisses += mi - s.markMisses
		s.funcMissLat += ml - s.markMissLat
	default:
		s.detCycles += now - s.markClock
	}
	st := &SampleStats{
		Plan:        s.plan,
		TotalRefs:   s.refs,
		FuncRefs:    s.funcRefs,
		FuncCycles:  s.funcCycles,
		DetCycles:   s.detCycles,
		FuncMisses:  s.funcMisses,
		FuncMissLat: s.funcMissLat,
		Rounds:      s.rounds,
		RoundRefs:   s.roundRefs,
		Intervals:   s.intervals,
	}
	if len(st.Intervals) == 0 {
		// The run ended before one interval completed: fall back to a single
		// whole-run delta so extrapolation degrades to the hybrid totals.
		s.cp = slimCheckpoint{Nodes: make([]nodeDelta, len(s.m.Nodes))}
		iv := s.delta(0)
		iv.Refs = s.refs
		st.Degraded = true
		st.Intervals = []Interval{iv}
	}
	for i := range st.Intervals {
		st.MeasuredRefs += st.Intervals[i].Refs
	}
	return st
}
