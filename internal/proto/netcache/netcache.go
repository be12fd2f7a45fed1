// Package netcache implements the NetCache interconnect and its update-based
// coherence protocol (Section 3): a star-coupler subnetwork (request channel,
// two coherence channels, p home channels) plus the ring subnetwork whose
// cache channels form a system-wide shared cache.
//
// With zero ring channels the same protocol is the star-coupler-only OPTNET
// system ("a NetCache multiprocessor without a shared cache"), used as the
// no-shared-cache baseline in Figures 7, 9 and 10.
package netcache

import (
	"netcache/internal/machine"
	"netcache/internal/mem"
	"netcache/internal/optical"
	"netcache/internal/proto/counter"
	"netcache/internal/ring"
	"netcache/internal/sim"
)

// Time aliases the simulator timestamp.
type Time = sim.Time

// Proto is the NetCache protocol instance.
type Proto struct {
	m *machine.Machine

	reqCh  *optical.TDMA      // request channel: memory requests + update acks
	cohCh  [2]*optical.Token  // coherence channels (node transmits on ID%2)
	homeCh []optical.Timeline // one point-to-point channel per home node (one backing array)

	rc *ring.Cache // shared cache; nil for OPTNET

	// singleStart disables the dual-start read optimization of Section 3.4:
	// the star-coupler request is issued only after the ring scan concludes
	// the block is absent (half a roundtrip on average), which is the
	// design alternative the paper argues against.
	singleStart bool

	// race maps a block to the cycle at which the race FIFO entry for a
	// recent update leaves the queue (two ring roundtrips after delivery);
	// shared-cache accesses to it are delayed until then (Section 3.4).
	// Shared blocks are dense above mem.SharedBase, so the open-addressed
	// block-index table resolves in one probe for almost every access.
	race mem.BlockTable[Time]

	// deliverFn is the update-delivery event bound once, scheduled through
	// ScheduleArgs so each drained entry does not allocate a closure.
	deliverFn func(writer, block int64)

	counters counter.Set
}

// SetSingleStart enables the single-start read ablation (reads begin on the
// ring only; the star request waits for miss determination).
func (p *Proto) SetSingleStart(v bool) { p.singleStart = v }

// New builds a NetCache protocol over m with the given shared cache (rc may
// be nil for the OPTNET configuration).
func New(m *machine.Machine, rc *ring.Cache) *Proto {
	md := m.Model
	p := &Proto{
		m:      m,
		reqCh:  optical.NewTDMA(md.SlotUnit, md.Procs),
		homeCh: make([]optical.Timeline, md.Procs),
		rc:     rc,
	}
	half := md.Procs / 2
	if half == 0 {
		half = 1
	}
	p.cohCh[0] = optical.NewToken(md.CoherenceSlot, half)
	p.cohCh[1] = optical.NewToken(md.CoherenceSlot, half)
	// The engine sets Now to the event's cycle before dispatch, so the
	// delivery time does not need to travel with the event.
	p.deliverFn = func(writer, block int64) {
		p.deliverUpdate(int(writer), mem.Addr(block), p.m.Eng.Now())
	}
	return p
}

// Name identifies the system.
func (p *Proto) Name() string {
	if p.rc == nil {
		return "optnet"
	}
	return "netcache"
}

// Ring returns the shared cache (nil for OPTNET).
func (p *Proto) Ring() *ring.Cache { return p.rc }

// Counters returns protocol event counts plus channel utilization.
func (p *Proto) Counters() map[string]uint64 {
	p.counters.Store(counter.ReqchWaitCycles, uint64(p.reqCh.Waited))
	p.counters.Store(counter.ReqchGrants, p.reqCh.Grants)
	p.counters.Store(counter.CohchBusyCycles, uint64(p.cohCh[0].Busy+p.cohCh[1].Busy))
	p.counters.Store(counter.CohchWaitCycles, uint64(p.cohCh[0].Waited+p.cohCh[1].Waited))
	var busy uint64
	for _, h := range p.homeCh {
		busy += uint64(h.Busy)
	}
	p.counters.Store(counter.HomechBusyCycles, busy)
	return p.counters.Map()
}

func (p *Proto) coh(node int) (*optical.Token, int) {
	return p.cohCh[node%2], node / 2
}

// raceDelay returns the earliest cycle at or after t at which node may access
// the shared-cache copy of block.
func (p *Proto) raceDelay(n *machine.Node, block mem.Addr, t Time) Time {
	exp, ok := p.race.Get(p.m.Space.BlockIndex(block))
	if !ok {
		return t
	}
	if exp <= t {
		p.race.Delete(p.m.Space.BlockIndex(block))
		return t
	}
	n.St.RaceDelays++
	return exp
}

// ReadMiss implements the Section 3.4 read transaction: the request is
// started on both the star coupler and the ring, so a shared-cache miss
// takes no longer than a direct remote memory access.
func (p *Proto) ReadMiss(n *machine.Node, addr mem.Addr, t Time) (Time, mem.State) {
	md := p.m.Model
	sp := p.m.Space
	home := sp.Home(addr)
	if !sp.IsShared(addr) || home == n.ID {
		// Private data or locally-homed block: served by the local memory.
		ready := p.m.Mems[n.ID].ReadBlock(t, Time(p.m.Cfg.L2Block))
		p.counters.Inc(counter.LocalReads)
		return ready, mem.Clean
	}
	block := sp.Block(addr)
	t = p.raceDelay(n, block, t)

	// Ring path: tune a receiver to the block's cache channel.
	ringDone := sim.Forever
	ringHit := false
	if p.rc != nil {
		if hit, avail := p.rc.Lookup(addr, n.ID, t); hit {
			ringHit = true
			ringDone = avail + md.NIToL2
		}
	}

	// Star path: request slot, home services unless the block is cached.
	tStar := t
	if p.singleStart && p.rc != nil && !ringHit {
		// Ablation: the request waits for the ring scan to conclude a miss
		// (half a roundtrip on average).
		tStar = t + md.RingRoundtrip/2
		p.counters.Inc(counter.SingleStartDelays)
	}
	slot := p.reqCh.Acquire(n.ID, tStar)
	atHome := slot + md.MemRequest + md.Flight
	homeDone := sim.Forever
	if !ringHit {
		lineBytes := Time(p.m.Cfg.L2Block)
		if p.rc != nil && p.rc.Config().LineBytes > p.m.Cfg.L2Block {
			// Longer shared-cache lines fetch (and pollute) more.
			lineBytes = Time(p.rc.Config().LineBytes)
		}
		ready := p.m.Mems[home].ReadBlock(atHome, lineBytes)
		if p.rc != nil {
			p.rc.Insert(addr, home, ready)
		}
		start := p.homeCh[home].Acquire(ready, md.BlockTransfer)
		homeDone = start + md.BlockTransfer + md.Flight + md.NIToL2
		p.counters.Inc(counter.HomeFetches)
	} else {
		// The home sees the block in its channel table and disregards the
		// request; the requester captures the block from the ring.
		n.St.SharedHits++
		p.counters.Inc(counter.SharedHits)
	}
	done := homeDone
	if ringDone < done {
		done = ringDone
	}
	return done, mem.Clean
}

// DrainEntry implements the Section 3.4 write transaction for one coalesced
// write-buffer entry.
func (p *Proto) DrainEntry(n *machine.Node, e mem.WBEntry, t Time) (nextAt, memAt Time) {
	md := p.m.Model
	if !e.Shared {
		// Private write: performed at the local memory module.
		done, _ := p.m.Mems[n.ID].Update(t + md.L2TagCheck)
		p.counters.Inc(counter.PrivateWrites)
		return t + md.L2TagCheck + 1, done
	}
	home := p.m.Space.Home(e.Block)
	tNI := t + md.L2TagCheck + md.WriteToNI
	ch, member := p.coh(n.ID)
	xmit := md.UpdateXmit(e.Words())
	start := ch.Acquire(member, tNI, xmit)
	delivery := start + xmit + md.Flight
	p.counters.Inc(counter.Updates)

	// Delivery: snoopers update L2 copies (invalidating L1 halves), the home
	// inserts the update into its memory FIFO and refreshes the ring copy.
	p.m.Eng.ScheduleArgs(delivery, p.deliverFn, int64(n.ID), int64(e.Block))

	memDone, ackAt := p.m.Mems[home].Update(delivery)
	if ackAt < delivery {
		ackAt = delivery
	}
	ackSlot := p.reqCh.Acquire(home, ackAt)
	ackArrive := ackSlot + md.AckXmit + md.Flight
	return ackArrive, memDone
}

func (p *Proto) deliverUpdate(writer int, block mem.Addr, t Time) {
	md := p.m.Model
	l2b := p.m.Nodes[0].L2.BlockBytes()
	sh := p.m.Sharers(block)
	for id := sh.Next(0); id >= 0; id = sh.Next(id + 1) {
		if id == writer {
			continue
		}
		node := p.m.Nodes[id]
		if _, ok := node.L2.Lookup(block); ok {
			// The secondary cache is updated; the L1 copy is invalidated.
			node.L1.InvalidateRange(block, l2b)
			node.St.UpdatesSeen++
		}
	}
	if p.rc != nil && p.rc.Update(block, t) {
		// The home refreshes the circulating copy within two roundtrips;
		// reads are held off via the race FIFO until it is current.
		p.race.Put(p.m.Space.BlockIndex(block), t+md.RaceFIFOResidency)
		p.counters.Inc(counter.RingUpdates)
	}
}

// SyncXmit broadcasts a synchronization message on the node's coherence
// channel.
func (p *Proto) SyncXmit(n *machine.Node, t Time) Time {
	md := p.m.Model
	ch, member := p.coh(n.ID)
	start := ch.Acquire(member, t, md.CoherenceSlot)
	return start + md.CoherenceSlot + md.Flight
}

// Evict is a no-op: memory is always up to date under update coherence, so
// replacements never write back.
func (p *Proto) Evict(n *machine.Node, block mem.Addr, st mem.State, t Time) {}

// ---- Functional warmup (machine.Warmer) --------------------------------

// WarmRead services a functional read miss: the ring is probed through the
// read-only Contains (the same present/absent criterion Lookup applies), and
// the recency touch or the home fetch's insertion goes through n.Defer. No
// channel is arbitrated and race-FIFO residency is skipped — the latency is
// the Section 5 contention-free estimate.
func (p *Proto) WarmRead(n *machine.Node, addr mem.Addr) (Time, mem.State) {
	md := p.m.Model
	sp := p.m.Space
	home := sp.Home(addr)
	if !sp.IsShared(addr) || home == n.ID {
		n.RoundCounters().Inc(counter.LocalReads)
		return md.L1TagCheck + md.L2TagCheck + md.MemBlockRead(Time(p.m.Cfg.L2Block)), mem.Clean
	}
	if p.rc != nil && p.rc.Contains(addr) {
		n.St.SharedHits++
		n.RoundCounters().Inc(counter.SharedHits)
		n.Defer(machine.WarmEffect{Kind: machine.EffRingHit, Block: addr, T: n.Now()})
		return md.SharedCacheHit(), mem.Clean
	}
	if p.rc != nil {
		n.Defer(machine.WarmEffect{Kind: machine.EffRingMiss, Block: addr, T: n.Now(), Aux: int64(home)})
	}
	n.RoundCounters().Inc(counter.HomeFetches)
	return md.SharedCacheMiss(), mem.Clean
}

// WarmDrain delivers one coalesced update functionally: the delivery
// (snoopers, ring refresh, race FIFO all touch shared state) goes through
// n.Defer to the same deliverUpdate the detailed path schedules, without
// channel acquisition.
func (p *Proto) WarmDrain(n *machine.Node, e mem.WBEntry) {
	if !e.Shared {
		n.RoundCounters().Inc(counter.PrivateWrites)
		return
	}
	n.RoundCounters().Inc(counter.Updates)
	n.Defer(machine.WarmEffect{Kind: machine.EffUpdate, Block: e.Block, T: n.Now()})
}

// WarmDrainLatency is the Table 3 contention-free 8-word write transaction.
func (p *Proto) WarmDrainLatency() Time { return p.m.Model.CoherenceNetCache(8) }

// WarmApply performs one recorded effect (n is the recording node). Ring
// probes re-run against the current ring state: a recorded hit touches
// recency, a recorded miss inserts unless an earlier replay already did.
func (p *Proto) WarmApply(n *machine.Node, e machine.WarmEffect) {
	switch e.Kind {
	case machine.EffRingHit:
		p.rc.Lookup(e.Block, n.ID, e.T)
	case machine.EffRingMiss:
		if hit, _ := p.rc.Lookup(e.Block, n.ID, e.T); !hit {
			p.rc.Insert(e.Block, int(e.Aux), e.T)
		}
	case machine.EffUpdate:
		p.deliverUpdate(n.ID, e.Block, e.T)
	}
}

// WarmMerge folds a node's scratch counters into the protocol bank.
func (p *Proto) WarmMerge(cs *counter.Set) { p.counters.Merge(cs) }

// WarmRoundQuota opts the ring-bearing system out of parallel rounds: the
// shared ring is a recency structure whose warm contents depend on the
// fine-grained cross-node insertion interleave (a node reuses a line its
// neighbor inserted moments earlier), and a frozen-ring round blinds every
// such probe. The ring-less OPTNET variant has no such state and takes the
// full round budget.
func (p *Proto) WarmRoundQuota() uint64 {
	if p.rc != nil {
		return 0
	}
	return machine.WarmRoundMaxQuota
}

var _ machine.Protocol = (*Proto)(nil)
var _ machine.Warmer = (*Proto)(nil)
