package machine

import (
	"netcache/internal/mem"
	"netcache/internal/proto/counter"
	"netcache/internal/sim"
	"netcache/internal/stats"
	"netcache/internal/trace"
)

// Node is one processing node: processor + caches + write buffer. The memory
// module lives in Machine.Mems[ID] so protocols can queue against it.
type Node struct {
	ID int
	M  *Machine
	L1 *mem.Cache
	L2 *mem.Cache
	WB *mem.WriteBuffer

	// proc is the node's processor, recorded when Run starts; svcAddr and
	// the bound readSvcFn/writeSvcFn/fenceSvcFn let the Ctx fast paths hand
	// a memory reference to Proc.Invoke without allocating a closure per
	// call (a stored per-call closure escapes; these are built once).
	proc       *sim.Proc
	svcAddr    Addr
	readSvcFn  func()
	writeSvcFn func()
	fenceSvcFn func()

	// Write-buffer drain pipeline: one outstanding coherence transaction.
	// Entries age in the buffer before draining so consecutive writes to a
	// block coalesce into one update; a fence or buffer pressure overrides
	// the aging.
	//
	// drainFn and drainAckFn are drainStep/drainAck bound once at
	// construction: the pipeline reschedules itself on every drained entry,
	// and a stored func value keeps those events allocation-free.
	drainFn     func()
	drainAckFn  func()
	inFlight    bool
	lastMemAt   Time // when the node's latest write was globally performed
	fenceProc   *sim.Proc
	fenceFrom   Time
	stallProc   *sim.Proc // processor stalled on a full write buffer
	stallBlock  Addr
	stallWord   int
	stallShared bool
	stallFrom   Time

	// Pending read bookkeeping for I-SPEED critical races: while a read
	// miss is outstanding, an arriving invalidation poisons the fill.
	pendingBlock Addr // -1 when no read outstanding
	poisoned     bool

	// In-flight prefetches live in a fixed bank of MSHR-style registers: a
	// demand miss on an in-flight block merges with it instead of
	// re-fetching, and a full bank simply declines to issue further
	// prefetches (finite miss-status registers, as real hardware has).
	// pfDoneFn is the completion event bound once so landing a prefetch
	// does not allocate a closure.
	pf       mshrBank
	pfDoneFn func(block, st int64)
	// lastMiss detects sequential miss streams: prefetching fires only when
	// a miss extends the previous one by one block.
	lastMiss Addr

	// warmFree models the drain pipeline in functional mode: the time the
	// single-outstanding-transaction pipeline next frees up. Entries drain at
	// max(eligible, warmFree) and occupy the pipeline for one drain latency,
	// so functional stretches coalesce writes at the same effective rate as
	// the event-driven pipeline.
	warmFree Time
	// Round (parallel functional fast-forward) state. While inRound, this
	// node may execute concurrently with others against frozen shared state:
	// warm paths write only node-local state and queue shared-state mutations
	// in effects, replayed in node-ID order at round close. roundLeft is the
	// remaining reference quota; roundRefs counts references consumed this
	// round (folded into the sampler's machine-wide count at close). scratch
	// is the functional steps' protocol counter bank, in a round or not.
	inRound   bool
	roundLeft uint64
	roundRefs uint64
	effects   []WarmEffect
	scratch   counter.Set

	// warmNext is a lower bound on the earliest time the write buffer's head
	// entry can drain — warmTick's single-compare fast path. It is lowered
	// to zero whenever an event could make the head eligible earlier (first
	// entry added, pressure threshold crossed, head replaced, functional
	// phase re-entered after detailed execution) and recomputed on the next
	// tick; a bound that is too low only costs a recomputation.
	warmNext Time

	St NodeStats
}

// warmNever parks warmNext while the write buffer is empty.
const warmNever = Time(1) << 62

// NodeStats accumulates per-node activity.
type NodeStats struct {
	Busy       Time // pure compute cycles
	Reads      uint64
	Writes     uint64
	L1Hits     uint64
	WBHits     uint64
	L2Hits     uint64
	LocalMiss  uint64 // L2 misses served by the local memory module
	RemoteMiss uint64 // L2 misses served across the network
	SharedHits uint64 // remote misses satisfied by the NetCache shared cache

	ReadStall  Time // total read latency beyond 1 pcycle
	L2MissLat  Time // total latency of L2 read misses
	WriteStall Time // cycles stalled on a full write buffer
	SyncStall  Time // cycles waiting at barriers/locks (incl. fences)

	FenceStall    Time            // portion of SyncStall spent in release fences
	MissHist      stats.Histogram // second-level read miss latencies
	UpdatesIssued uint64
	RaceDelays    uint64
	InvalsSeen    uint64
	UpdatesSeen   uint64
	Prefetches    uint64 // background next-block fetches issued
	PrefetchHits  uint64 // demand misses merged with an in-flight prefetch
}

// read services a processor load of the 8-byte word at a, blocking p until
// the data is available. Runs in engine context.
func (n *Node) read(p *sim.Proc, a Addr) {
	m := n.M
	t := p.Clock()
	n.St.Reads++
	if _, ok := n.L1.Lookup(a); ok {
		n.St.L1Hits++
		p.ResumeAt(t + m.Model.L1TagCheck)
		return
	}
	block := n.L2.BlockBytes()
	l2block := a &^ (block - 1)
	word := m.Space.WordIndex(a)
	if n.WB.Match(l2block, word) {
		// Read forwarded from the coalescing write buffer.
		n.St.WBHits++
		p.ResumeAt(t + m.Model.L1TagCheck)
		return
	}
	if _, ok := n.L2.Lookup(a); ok {
		n.St.L2Hits++
		n.FillL1(a)
		done := t + m.Model.L2HitTotal
		n.St.ReadStall += done - t - 1
		p.ResumeAt(done)
		return
	}
	// A demand miss on a block with an in-flight prefetch merges with it.
	if pfDone, ok := n.pf.lookup(l2block); ok {
		n.St.PrefetchHits++
		done := pfDone + 1
		if done < t+m.Model.L2HitTotal {
			done = t + m.Model.L2HitTotal
		}
		n.St.ReadStall += done - t - 1
		p.ResumeAt(done)
		return
	}
	// Second-level miss.
	tTag := t + m.Model.L1TagCheck + m.Model.L2TagCheck
	n.pendingBlock = l2block
	n.poisoned = false
	shared := m.Space.IsShared(a)
	if shared {
		// Register the outstanding read so racing invalidations can poison it
		// without scanning every node.
		m.addPending(l2block, n.ID)
	}
	done, st := m.Proto.ReadMiss(n, a, tTag)
	if shared {
		m.dropPending(l2block, n.ID)
	}
	if shared && m.Space.Home(a) != n.ID {
		n.St.RemoteMiss++
	} else {
		n.St.LocalMiss++
	}
	n.FillL2(l2block, st, done)
	if n.poisoned {
		// I-SPEED critical race: the copy is invalidated right after the
		// pending read completes; the read itself uses the received data.
		n.L2.Invalidate(l2block)
		n.L1.InvalidateRange(l2block, block)
		m.dropSharer(l2block, n.ID)
	} else {
		n.FillL1(a)
	}
	n.pendingBlock = -1
	n.poisoned = false
	n.St.ReadStall += done - t - 1
	n.St.L2MissLat += done - t
	n.St.MissHist.Add(int64(done - t))
	if m.Trace != nil {
		m.Trace.Record(trace.Event{At: int64(t), Node: int16(n.ID), Kind: trace.L2Miss, Addr: a, Latency: int32(done - t)})
	}
	if m.Cfg.Prefetch && l2block == n.lastMiss+block {
		// Detected a sequential miss stream: fetch the next block ahead.
		n.prefetch(l2block+block, done)
	}
	n.lastMiss = l2block
	p.ResumeAt(done)
}

// mshrCap is the number of prefetch miss-status registers per node. A full
// bank declines new prefetches rather than growing (sequential streams keep
// at most a couple of fetches in flight, so the cap is never limiting in
// practice).
const mshrCap = 8

// mshrBank is the fixed bank of in-flight prefetch registers: (block,
// completion cycle) pairs, scanned linearly (the bank is tiny and usually
// holds zero or one entry). Entries are unordered; remove swaps the last
// register into the vacated slot.
type mshrBank struct {
	block [mshrCap]Addr
	done  [mshrCap]Time
	n     int
}

func (b *mshrBank) lookup(block Addr) (Time, bool) {
	for i := 0; i < b.n; i++ {
		if b.block[i] == block {
			return b.done[i], true
		}
	}
	return 0, false
}

// insert registers an in-flight fetch; it reports false when the bank is
// full or the block is already registered.
func (b *mshrBank) insert(block Addr, done Time) bool {
	if b.n >= mshrCap {
		return false
	}
	if _, ok := b.lookup(block); ok {
		return false
	}
	b.block[b.n] = block
	b.done[b.n] = done
	b.n++
	return true
}

func (b *mshrBank) remove(block Addr) {
	for i := 0; i < b.n; i++ {
		if b.block[i] == block {
			b.n--
			b.block[i] = b.block[b.n]
			b.done[i] = b.done[b.n]
			return
		}
	}
}

// prefetch issues a background fetch of block at time t (the extended
// machine with extra tunable receivers, Section 6). It does not block the
// processor; the block lands in L2 when its transaction completes, and a
// demand miss in the meantime merges with it.
func (n *Node) prefetch(block Addr, t Time) {
	if _, ok := n.L2.Lookup(block); ok {
		return
	}
	if n.WB.Has(block) {
		return
	}
	if _, ok := n.pf.lookup(block); ok {
		return
	}
	if n.pf.n >= mshrCap {
		return
	}
	n.St.Prefetches++
	done, st := n.M.Proto.ReadMiss(n, block, t)
	if n.M.Trace != nil {
		n.M.Trace.Record(trace.Event{At: int64(t), Node: int16(n.ID), Kind: trace.Prefetch, Addr: block, Latency: int32(done - t)})
	}
	n.pf.insert(block, done)
	n.M.Eng.ScheduleArgs(done, n.pfDoneFn, int64(block), int64(st))
}

// prefetchDone lands a completed background fetch: the register frees and
// the block fills the L2 unless a demand miss already installed it.
func (n *Node) prefetchDone(block Addr, st mem.State) {
	n.pf.remove(block)
	if _, ok := n.L2.Lookup(block); !ok {
		n.FillL2(block, st, n.M.Eng.Now())
	}
}

// FillL1 installs the L1 block containing a (silent eviction: the L1 is
// write-through with respect to the write buffer).
func (n *Node) FillL1(a Addr) {
	n.L1.Fill(a, mem.Clean)
}

// FillL2 installs block in the L2 in state st at time t, invalidating the
// overlapped L1 blocks of any victim and notifying the protocol of the
// eviction (I-SPEED writes back owned blocks).
func (n *Node) FillL2(block Addr, st mem.State, t Time) {
	evicted, evState := n.L2.Fill(block, st)
	if evicted >= 0 {
		n.L1.InvalidateRange(evicted, n.L2.BlockBytes())
		if n.M.Space.IsShared(evicted) {
			n.M.dropSharer(evicted, n.ID)
		}
		n.M.Proto.Evict(n, evicted, evState, t)
	}
	if n.M.Space.IsShared(block) {
		n.M.addSharer(block, n.ID)
	}
}

// InvalidateL2 drops block from the node's caches on behalf of a remotely
// delivered invalidation, clearing the node's sharer-set membership so later
// fan-out skips it. Callers have already confirmed presence via L2.Lookup.
func (n *Node) InvalidateL2(block Addr) {
	n.L2.Invalidate(block)
	n.L1.InvalidateRange(block, n.L2.BlockBytes())
	n.M.dropSharer(block, n.ID)
}

// write services a processor store to the 8-byte word at a. Stores cost one
// pcycle unless the write buffer is full, in which case the processor stalls
// until the drain pipeline pops an entry.
func (n *Node) write(p *sim.Proc, a Addr) {
	m := n.M
	t := p.Clock()
	n.St.Writes++
	shared := m.Space.IsShared(a)
	block := m.Space.Block(a)
	word := m.Space.WordIndex(a)
	if !n.WB.Full() || n.WB.Has(block) {
		n.WB.Add(block, word, shared, int64(t))
		n.kickDrain(t + 1)
		p.ResumeAt(t + 1)
		return
	}
	// Stall until the drain pipeline frees an entry. The kick matters after
	// a functional-warmup stretch: warm writes fill the buffer without
	// scheduling drain events, so a full buffer no longer implies a pending
	// drainStep (it is idempotent when one is).
	n.stallProc = p
	n.stallBlock = block
	n.stallWord = word
	n.stallShared = shared
	n.stallFrom = t
	n.kickDrain(t)
	p.Block()
}

// wbAge is how long an entry may sit in the write buffer waiting for more
// writes to coalesce before it becomes eligible to drain. A pending fence or
// buffer pressure makes entries eligible immediately.
const wbAge Time = 50

// wbPressure is the occupancy at which entries drain without aging.
const wbPressure = 8

// kickDrain nudges the drain pipeline (idempotent).
func (n *Node) kickDrain(t Time) {
	if n.inFlight {
		return
	}
	if _, ok := n.WB.Front(); !ok {
		return
	}
	n.M.Eng.Schedule(t, n.drainFn)
}

// eligible reports whether the head entry may drain at time now.
func (n *Node) eligible(e mem.WBEntry, now Time) bool {
	if n.fenceProc != nil || n.stallProc != nil {
		return true
	}
	if n.WB.Len() >= wbPressure {
		return true
	}
	return now >= Time(e.At)+wbAge
}

// drainStep issues the next eligible write-buffer entry and reschedules
// itself for when the entry's acknowledgement arrives. Extra invocations
// are harmless: the in-flight flag makes it idempotent.
func (n *Node) drainStep() {
	if n.inFlight {
		return
	}
	now := n.M.Eng.Now()
	e, ok := n.WB.Front()
	if !ok {
		n.drainIdle(now)
		return
	}
	if !n.eligible(e, now) {
		n.M.Eng.Schedule(Time(e.At)+wbAge, n.drainFn)
		return
	}
	n.WB.PopFront()
	// A processor stalled on a full buffer can now complete its store.
	if n.stallProc != nil {
		n.WB.Add(n.stallBlock, n.stallWord, n.stallShared, int64(now))
		n.St.WriteStall += now - n.stallFrom
		n.stallProc.ResumeAt(now + 1)
		n.stallProc = nil
	}
	if e.Shared {
		n.St.UpdatesIssued++
		if n.M.Trace != nil {
			n.M.Trace.Record(trace.Event{At: int64(now), Node: int16(n.ID), Kind: trace.Update, Addr: e.Block})
		}
	}
	n.inFlight = true
	// The acknowledgement (nextAt) certifies the update is in the home's
	// memory FIFO; reads are served behind that FIFO, so the release fence
	// only needs acks, not the memory write itself (memAt is kept for
	// reporting).
	nextAt, memAt := n.M.Proto.DrainEntry(n, e, now)
	if memAt > n.lastMemAt {
		n.lastMemAt = memAt
	}
	_ = memAt
	n.M.Eng.Schedule(nextAt, n.drainAckFn)
}

// drainAck is the drain acknowledgement event: the outstanding transaction
// completed, so the pipeline may issue its next entry.
func (n *Node) drainAck() {
	n.inFlight = false
	n.drainStep()
}

// drainIdle records pipeline completion and wakes a fence waiter.
func (n *Node) drainIdle(now Time) {
	if n.fenceProc != nil {
		p := n.fenceProc
		n.fenceProc = nil
		n.St.SyncStall += now - n.fenceFrom
		n.St.FenceStall += now - n.fenceFrom
		p.ResumeAt(now)
	}
}

// fence implements the release-consistency fence: the processor may proceed
// only once its write buffer has drained and its last update has been
// performed in home memory (Section 3.4: a node can only acquire a lock or
// pass a barrier after emptying its memory FIFO queue).
func (n *Node) fence(p *sim.Proc) {
	t := p.Clock()
	if !n.inFlight && n.WB.Len() == 0 {
		p.ResumeAt(t)
		return
	}
	n.fenceProc = p
	n.fenceFrom = t
	n.kickDrain(t)
	p.Block()
}

// Poison marks the node's outstanding read (if any, on block) as racing with
// an invalidation; the fill will be discarded right after the read completes.
func (n *Node) Poison(block Addr) {
	if n.pendingBlock == block {
		n.poisoned = true
	}
}

// ---- Functional-warmup paths -------------------------------------------
//
// The warm* methods mirror read/write/fence but run entirely in app context:
// cache, write-buffer and protocol state advance exactly as in the detailed
// path, latencies are contention-free estimates, and no engine event is
// scheduled. Every step goes through the protocol's Warmer handlers, which
// record shared-state mutations through Defer. Inside a parallel round those
// effects queue for replay at round close; outside one, Defer applies each at
// once — safe under engine exclusivity by the same argument as the Ctx.Read
// L1 fast path: only one goroutine is ever runnable.

// Now returns the node's processor clock. Valid only while the machine runs;
// protocols use it to keep warm-mode state timestamps (ring recency, race
// FIFO residency) consistent with the advancing clocks.
func (n *Node) Now() Time { return n.proc.Clock() }

// Defer records a shared-state mutation. Outside a parallel round it is
// applied at once, in the order the handler records it; inside one it is
// queued for node-ID-ordered replay when the round closes.
func (n *Node) Defer(e WarmEffect) {
	if !n.inRound {
		n.M.apply(n, e)
		return
	}
	n.effects = append(n.effects, e)
	if len(n.effects) >= roundEffectsCap {
		// Effect-heavy access patterns (every reference missing L2 defers
		// fill bookkeeping) would otherwise accumulate quota*3 deferred
		// effects live on all P nodes at once — tens of MB at 256 nodes.
		// Spending the rest of the quota ends this node's participation at
		// its next step; node-local state, so determinism is unaffected.
		n.roundLeft = 0
	}
}

// RoundCounters is the node's scratch counter bank: protocols count their
// functional steps into it, and it is merged via WarmMerge when a round
// closes and when the run's statistics are collected.
func (n *Node) RoundCounters() *counter.Set { return &n.scratch }

// WarmFillL2 installs block functionally: the victim's L1 halves are
// invalidated, and the sharer-set updates and the protocol's state-only
// eviction go through Defer — both touch shared machine/protocol state.
func (n *Node) WarmFillL2(block Addr, st mem.State) {
	evicted, evState := n.L2.Fill(block, st)
	if evicted >= 0 {
		n.L1.InvalidateRange(evicted, n.L2.BlockBytes())
		if n.M.Space.IsShared(evicted) {
			n.Defer(WarmEffect{Kind: EffSharerDrop, Block: evicted})
		}
		n.Defer(WarmEffect{Kind: EffEvict, Block: evicted, Aux: int64(evState)})
	}
	if n.M.Space.IsShared(block) {
		n.Defer(WarmEffect{Kind: EffSharerAdd, Block: block})
	}
}

// warmRead is the functional read path.
func (n *Node) warmRead(p *sim.Proc, a Addr) {
	m := n.M
	n.St.Reads++
	n.warmTick(p.Clock())
	if _, ok := n.L1.Lookup(a); ok {
		n.St.L1Hits++
		p.Advance(m.Model.L1TagCheck)
		return
	}
	block := n.L2.BlockBytes()
	l2block := a &^ (block - 1)
	if n.WB.Match(l2block, m.Space.WordIndex(a)) {
		n.St.WBHits++
		p.Advance(m.Model.L1TagCheck)
		return
	}
	if _, ok := n.L2.Lookup(a); ok {
		n.St.L2Hits++
		n.FillL1(a)
		n.St.ReadStall += m.Model.L2HitTotal - 1
		p.Advance(m.Model.L2HitTotal)
		return
	}
	if _, ok := n.pf.lookup(l2block); ok {
		// An in-flight prefetch from a detailed phase holds the block; its
		// completion event will land it.
		n.St.PrefetchHits++
		n.St.ReadStall += m.Model.L2HitTotal - 1
		p.Advance(m.Model.L2HitTotal)
		return
	}
	lat, st := m.warm.WarmRead(n, a)
	if m.Space.IsShared(a) && m.Space.Home(a) != n.ID {
		n.St.RemoteMiss++
	} else {
		n.St.LocalMiss++
	}
	n.WarmFillL2(l2block, st)
	n.FillL1(a)
	n.St.ReadStall += lat - 1
	n.St.L2MissLat += lat
	n.St.MissHist.Add(int64(lat))
	n.lastMiss = l2block
	p.Advance(lat)
}

// warmTick advances the functional drain-pipeline model to now: entries
// that became eligible (pressure or age) drain serially, one per drain
// latency, mirroring the detailed pipeline's single outstanding transaction.
// Both the read and write paths tick, so entries age out between sparse
// writes just as the event-driven pipeline would, and write bursts back up
// and coalesce instead of draining instantly. Background drains overlap
// execution in the detailed machine, so they cost the processor nothing.
func (n *Node) warmTick(now Time) {
	if now < n.warmNext {
		return
	}
	for {
		e, ok := n.WB.Front()
		if !ok {
			n.warmNext = warmNever
			return
		}
		start := Time(e.At)
		if n.WB.Len() < wbPressure {
			start += wbAge * warmAgeScale
		}
		if start < n.warmFree {
			start = n.warmFree
		}
		if start > now {
			n.warmNext = start
			return
		}
		n.warmDrainEntry(n.WB.PopFront())
		n.warmFree = start + n.M.warmDrainLat
	}
}

// warmWrite is the functional store path: the write buffer still coalesces
// (its occupancy shapes later detailed intervals), and entries drain through
// the warmTick pipeline model under the same eligibility rule as the
// detailed pipeline — pressure or age.
func (n *Node) warmWrite(p *sim.Proc, a Addr) {
	m := n.M
	n.St.Writes++
	block := m.Space.Block(a)
	word := m.Space.WordIndex(a)
	now := p.Clock()
	n.warmTick(now)
	if n.WB.Full() && !n.WB.Has(block) {
		// Structural hazard: the detailed path stalls the store until the
		// pipeline frees an entry. Drain the head through the pipeline model
		// without advancing the processor — the detailed stall is dominated
		// by contention, which the functional clock deliberately omits, and
		// charging the contention-free wait here double-counts against the
		// calibrated extrapolation.
		e, _ := n.WB.Front()
		start := Time(e.At)
		if start < n.warmFree {
			start = n.warmFree
		}
		n.warmDrainEntry(n.WB.PopFront())
		n.warmFree = start + m.warmDrainLat
		n.warmNext = 0 // head replaced: recompute the drain bound
	}
	n.WB.Add(block, word, m.Space.IsShared(a), int64(now))
	if l := n.WB.Len(); l == 1 || l == wbPressure {
		// A first entry sets the head; crossing the pressure threshold
		// removes the aging delay. Either can make a drain eligible earlier
		// than the recorded bound.
		n.warmNext = 0
	}
	n.warmTick(now)
	p.Advance(1)
}

func (n *Node) warmDrainEntry(e mem.WBEntry) {
	if e.Shared {
		n.St.UpdatesIssued++
	}
	n.M.warm.WarmDrain(n, e)
}

// warmFence drains the write buffer functionally. Entries drain serially in
// the detailed pipeline (one coherence transaction in flight), so the fence
// charges one contention-free drain latency per entry. An outstanding
// detailed transaction, if any, completes via its already-scheduled events.
func (n *Node) warmFence(p *sim.Proc) {
	t0 := p.Clock()
	if n.warmFree > t0 {
		// Wait out the modeled in-flight drain before the remaining entries
		// go through back-to-back.
		p.Advance(n.warmFree - t0)
	}
	for n.WB.Len() > 0 {
		n.warmDrainEntry(n.WB.PopFront())
		p.Advance(n.M.warmDrainLat)
	}
	n.warmFree = p.Clock()
	n.warmNext = warmNever // buffer drained empty
	d := p.Clock() - t0
	n.St.SyncStall += d
	n.St.FenceStall += d
}

// warmAgeScale stretches the write-buffer aging threshold in functional
// mode: the contention-free clock covers fewer references per cycle than the
// detailed one, so unscaled aging would drain entries relatively sooner and
// coalesce fewer writes than the detailed machine does.
const warmAgeScale = 2
