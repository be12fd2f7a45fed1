// Package dmon implements the two DMON-based baselines of Section 2.2:
//
//   - DMON-U: the update-based protocol Carrera & Bianchini proposed for a
//     DMON extended with a second broadcast (update) channel. Homes are
//     always current, so misses are served directly from memory.
//   - DMON-I: the I-SPEED invalidate protocol of Ha & Pinkston, with
//     clean/exclusive/shared/invalid states, a home directory recording the
//     block's owner, cache-to-cache forwarding, writebacks of owned blocks
//     on eviction, and critical-race handling (a coherence operation seen
//     for a block with a pending read forces its invalidation right after
//     the read completes).
//
// Medium access follows DMON: a TDMA control channel carries reservations
// for all other channels; home channels carry requests and block transfers;
// broadcast channels carry coherence traffic. The tunable transmitter pays a
// retuning delay on the request path (Table 2).
package dmon

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

// Variant selects the coherence protocol run on the DMON network.
type Variant int

const (
	// Update is DMON-U.
	Update Variant = iota
	// Invalidate is DMON-I (I-SPEED).
	Invalidate
)

// Proto is a DMON protocol instance.
type Proto struct {
	m       *machine.Machine
	variant Variant

	ctrl   *optical.TDMA       // control channel: distributed reservation
	bcast  [2]optical.Timeline // broadcast/coherence channels (U uses both; I uses [0])
	homeCh []optical.Timeline  // home channels: requests in, replies out (one backing array)

	// I-SPEED directory: block index -> owner node (absent = no owner,
	// memory current). Shared blocks are dense above mem.SharedBase, so the
	// open-addressed block-index table resolves in one probe almost always.
	dir mem.BlockTable[int]

	// deliverUpdateFn/deliverInvalFn are the coherence delivery events bound
	// once, scheduled through ScheduleArgs so drains do not allocate a
	// closure per entry.
	deliverUpdateFn func(writer, block int64)
	deliverInvalFn  func(writer, block int64)

	counters counter.Set
}

// New builds a DMON protocol of the given variant over m.
func New(m *machine.Machine, v Variant) *Proto {
	md := m.Model
	p := &Proto{
		m:       m,
		variant: v,
		ctrl:    optical.NewTDMA(md.SlotUnit, md.Procs),
	}
	p.homeCh = make([]optical.Timeline, md.Procs)
	if v == Invalidate {
		p.dir.Reserve(16 * md.Procs)
	}
	p.deliverUpdateFn = func(writer, block int64) {
		p.deliverUpdate(int(writer), mem.Addr(block))
	}
	p.deliverInvalFn = func(writer, block int64) {
		p.deliverInval(int(writer), mem.Addr(block))
	}
	return p
}

// Name identifies the system.
func (p *Proto) Name() string {
	if p.variant == Update {
		return "dmon-u"
	}
	return "dmon-i"
}

// Ring returns nil: DMON has no shared cache.
func (p *Proto) Ring() *ring.Cache { return nil }

// Counters returns protocol event counts.
func (p *Proto) Counters() map[string]uint64 {
	p.counters.Store(counter.CtrlWaitCycles, uint64(p.ctrl.Waited))
	p.counters.Store(counter.CtrlGrants, p.ctrl.Grants)
	var busy, grants uint64
	for _, h := range p.homeCh {
		busy += uint64(h.Busy)
		grants += h.Grants
	}
	p.counters.Store(counter.HomechBusyCycles, busy)
	p.counters.Store(counter.HomechGrants, grants)
	var hwait uint64
	for _, h := range p.homeCh {
		hwait += uint64(h.Waited)
	}
	p.counters.Store(counter.HomechWaitCycles, hwait)
	p.counters.Store(counter.BcastWaitCycles, uint64(p.bcast[0].Waited+p.bcast[1].Waited))
	p.counters.Store(counter.BcastBusyCycles, uint64(p.bcast[0].Busy+p.bcast[1].Busy))
	return p.counters.Map()
}

// reserve models the control-channel reservation: wait for the node's TDMA
// slot, then transmit the one-cycle reservation.
func (p *Proto) reserve(node int, t Time) Time {
	md := p.m.Model
	start := p.ctrl.Acquire(node, t)
	return start + md.Reservation
}

func (p *Proto) bcastFor(node int) *optical.Timeline {
	if p.variant == Update {
		return &p.bcast[node%2]
	}
	return &p.bcast[0]
}

// ReadMiss implements the Table 2 read transaction, plus I-SPEED owner
// forwarding when the directory names an owner.
func (p *Proto) ReadMiss(n *machine.Node, addr mem.Addr, t Time) (Time, mem.State) {
	md := p.m.Model
	sp := p.m.Space
	home := sp.Home(addr)
	block := sp.Block(addr)

	if !sp.IsShared(addr) {
		ready := p.m.Mems[n.ID].ReadBlock(t, Time(p.m.Cfg.L2Block))
		p.counters.Inc(counter.LocalReads)
		return ready, mem.Clean
	}

	if home == n.ID {
		// Locally-homed shared block: the directory is consulted without
		// crossing the network; a remote owner still requires forwarding.
		if p.variant == Invalidate {
			if owner, ok := p.dir.Get(sp.BlockIndex(block)); ok && owner != n.ID {
				done := p.forward(n.ID, owner, block, t)
				return done, mem.Clean
			}
		}
		ready := p.m.Mems[n.ID].ReadBlock(t, Time(p.m.Cfg.L2Block))
		p.counters.Inc(counter.LocalReads)
		return ready, mem.Clean
	}

	// Remote request: control-channel reservation, retune, request on the
	// home's channel.
	res := p.reserve(n.ID, t)
	reqStart := p.homeCh[home].Acquire(res+md.TuningDelay, md.MemRequestDMON)
	atHome := reqStart + md.MemRequestDMON + md.Flight
	p.counters.Inc(counter.RemoteReads)

	if p.variant == Invalidate {
		if owner, ok := p.dir.Get(sp.BlockIndex(block)); ok && owner != n.ID {
			return p.forward(n.ID, owner, block, atHome), mem.Clean
		}
	}
	ready := p.m.Mems[home].ReadBlock(atHome, Time(p.m.Cfg.L2Block))
	return p.reply(home, n.ID, ready), mem.Clean
}

// reply sends a block from node `from` to the requester: reservation, then a
// block transfer on the requester's home channel.
func (p *Proto) reply(from, requester int, t Time) Time {
	md := p.m.Model
	res := p.reserve(from, t)
	start := p.homeCh[requester].Acquire(res, md.BlockTransferDMON)
	return start + md.BlockTransferDMON + md.Flight + md.NIToL2
}

// dirLookupService is the home-memory occupancy of an I-SPEED directory
// lookup (the directory lives in the home's memory, so "directory lookups
// required in all memory requests" contend with block reads there — one of
// the contention sources the paper attributes to DMON-I). Lookups that are
// followed by a block read from the same module are overlapped with it; the
// forwarding path pays the lookup explicitly.
const dirLookupService = Time(16)

// dirUpdateService is the home-memory occupancy of a directory write.
const dirUpdateService = Time(8)

// forward implements I-SPEED cache-to-cache service: the home bounces the
// request to the owner, which supplies a cache-forwarded copy (received as
// clean); an exclusive owner downgrades to shared.
func (p *Proto) forward(requester, owner int, block mem.Addr, atHome Time) Time {
	md := p.m.Model
	p.counters.Inc(counter.Forwards)
	home := p.m.Space.Home(block)
	// Directory lookup in the home's memory module.
	atHome = p.m.Mems[home].Occupy(atHome, dirLookupService)
	res := p.reserve(home, atHome)
	fwdStart := p.homeCh[owner].Acquire(res, md.MemRequestDMON)
	atOwner := fwdStart + md.MemRequestDMON + md.Flight

	on := p.m.Nodes[owner]
	if st, ok := on.L2.Lookup(block); ok {
		if st == mem.Exclusive {
			on.L2.SetState(block, mem.Shared)
		}
		return p.reply(owner, requester, atOwner)
	}
	// The owner's copy was evicted while the request was in flight (its
	// writeback is on the way); fall back to home memory.
	p.counters.Inc(counter.ForwardMisses)
	ready := p.m.Mems[home].ReadBlock(atOwner+md.Flight, Time(p.m.Cfg.L2Block))
	return p.reply(home, requester, ready)
}

// DrainEntry performs the write transaction for one coalesced entry.
func (p *Proto) DrainEntry(n *machine.Node, e mem.WBEntry, t Time) (nextAt, memAt Time) {
	md := p.m.Model
	if !e.Shared {
		done, _ := p.m.Mems[n.ID].Update(t + md.L2TagCheck)
		p.counters.Inc(counter.PrivateWrites)
		return t + md.L2TagCheck + 1, done
	}
	if p.variant == Update {
		return p.drainUpdate(n, e, t)
	}
	return p.drainInvalidate(n, e, t)
}

// drainUpdate implements the Table 3 DMON-U transaction (43 pcycles
// contention-free for 8 words).
func (p *Proto) drainUpdate(n *machine.Node, e mem.WBEntry, t Time) (nextAt, memAt Time) {
	md := p.m.Model
	home := p.m.Space.Home(e.Block)
	tNI := t + md.L2TagCheck + md.WriteToNI
	res := p.reserve(n.ID, tNI)
	xmit := md.UpdateXmit(e.Words())
	start := p.bcastFor(n.ID).Acquire(res, xmit)
	delivery := start + xmit + md.Flight
	p.counters.Inc(counter.Updates)

	p.m.Eng.ScheduleArgs(delivery, p.deliverUpdateFn, int64(n.ID), int64(e.Block))

	memDone, ackAt := p.m.Mems[home].Update(delivery)
	if ackAt < delivery {
		ackAt = delivery
	}
	// The ack is a short point-to-point message on the writer's home channel
	// (like a block reply), reserved through the control channel.
	ackRes := p.reserve(home, ackAt)
	ackStart := p.homeCh[n.ID].Acquire(ackRes, md.AckXmit)
	return ackStart + md.AckXmit + md.Flight, memDone
}

func (p *Proto) deliverUpdate(writer int, block mem.Addr) {
	l2b := p.m.Nodes[0].L2.BlockBytes()
	sh := p.m.Sharers(block)
	for id := sh.Next(0); id >= 0; id = sh.Next(id + 1) {
		if id == writer {
			continue
		}
		node := p.m.Nodes[id]
		if _, ok := node.L2.Lookup(block); ok {
			node.L1.InvalidateRange(block, l2b)
			node.St.UpdatesSeen++
		}
	}
}

// drainInvalidate implements the I-SPEED write path. Owned (exclusive)
// blocks are written locally; otherwise the writer broadcasts an
// invalidation (Table 3: 37 pcycles contention-free), becoming the block's
// exclusive owner. A write miss first fetches the block.
func (p *Proto) drainInvalidate(n *machine.Node, e mem.WBEntry, t Time) (nextAt, memAt Time) {
	md := p.m.Model
	block := e.Block
	st, present := n.L2.Lookup(block)
	if present && st == mem.Exclusive {
		// Silent write to the owned copy.
		done := t + md.L2TagCheck + md.WriteToNIDMONI + md.L2Write
		p.counters.Inc(counter.OwnerWrites)
		return done, done
	}
	start := t
	if !present {
		// Write miss: fetch the block first (write-allocate under
		// invalidate coherence).
		p.counters.Inc(counter.WriteMisses)
		fetchDone, fst := p.ReadMiss(n, block, t+md.L2TagCheck)
		n.FillL2(block, fst, fetchDone)
		start = fetchDone
	}
	// Broadcast the invalidation and take ownership.
	tNI := start + md.L2TagCheck + md.WriteToNIDMONI
	res := p.reserve(n.ID, tNI)
	invStart := p.bcast[0].Acquire(res, md.InvalXmit)
	delivery := invStart + md.InvalXmit + md.Flight
	p.counters.Inc(counter.Invalidations)

	p.m.Eng.ScheduleArgs(delivery, p.deliverInvalFn, int64(n.ID), int64(block))
	p.dir.Put(p.m.Space.BlockIndex(block), n.ID)
	n.L2.SetState(block, mem.Exclusive)

	home := p.m.Space.Home(block)
	// The home records the new owner in its in-memory directory before
	// acknowledging.
	dirDone := p.m.Mems[home].Occupy(delivery, dirUpdateService)
	ackRes := p.reserve(home, dirDone)
	ackStart := p.bcast[0].Acquire(ackRes, md.AckXmit)
	done := ackStart + md.AckXmit + md.Flight + md.L2Write
	return done, done
}

func (p *Proto) deliverInval(writer int, block mem.Addr) {
	// Sharers is a superset of the nodes actually holding the block (the
	// L2.Lookup recheck preserves exact semantics); iterating it makes the
	// broadcast cost proportional to the sharer count, not the machine size.
	sh := p.m.Sharers(block)
	for id := sh.Next(0); id >= 0; id = sh.Next(id + 1) {
		if id == writer {
			continue
		}
		node := p.m.Nodes[id]
		if _, ok := node.L2.Lookup(block); ok {
			node.InvalidateL2(block)
			node.St.InvalsSeen++
		}
	}
	// Critical race: pending reads on this block are poisoned and will be
	// invalidated right after they complete. Only nodes with an outstanding
	// read on the block can be affected; the pending set names exactly those.
	pend := p.m.Pending(block)
	for id := pend.Next(0); id >= 0; id = pend.Next(id + 1) {
		if id == writer {
			continue
		}
		p.m.Nodes[id].Poison(block)
	}
}

// Evict: I-SPEED writes back owned blocks on replacement and clears the
// directory entry; update coherence never writes back.
func (p *Proto) Evict(n *machine.Node, block mem.Addr, st mem.State, t Time) {
	if !p.clearOwner(n, block, st) {
		return
	}
	md := p.m.Model
	home := p.m.Space.Home(block)
	// Writing the block back streams it into the home memory (about the
	// same module occupancy as a block read) and clears the directory.
	wbService := md.MemReadService - 12
	if wbService < 8 {
		wbService = 8
	}
	if home == n.ID {
		p.m.Mems[home].Occupy(t+md.L2TagCheck, wbService+dirUpdateService)
		return
	}
	res := p.reserve(n.ID, t+md.L2TagCheck)
	start := p.homeCh[home].Acquire(res+md.TuningDelay, md.BlockTransferDMON)
	arrive := start + md.BlockTransferDMON + md.Flight
	p.m.Mems[home].Occupy(arrive, wbService+dirUpdateService)
}

// clearOwner is the state half of an eviction: when n owns the I-SPEED
// victim, its directory entry is cleared and the writeback counted. It
// reports whether a writeback is owed.
func (p *Proto) clearOwner(n *machine.Node, block mem.Addr, st mem.State) bool {
	if p.variant != Invalidate {
		return false
	}
	if st != mem.Exclusive && st != mem.Shared {
		return false
	}
	idx := p.m.Space.BlockIndex(block)
	if owner, ok := p.dir.Get(idx); !ok || owner != n.ID {
		return false
	}
	p.dir.Delete(idx)
	p.counters.Inc(counter.Writebacks)
	return true
}

// ---- Functional warmup (machine.Warmer) --------------------------------

// WarmRead services a functional read miss: the latency is the Table 2
// contention-free estimate (plus the bounce-and-lookup overhead on forwarded
// service), and no channel is reserved. The directory is read, but the
// owner's cache belongs to another node, so its downgrade — or the
// forward-miss fallback — goes through n.Defer. The charged latency is
// owner-independent, so it holds for either resolution.
func (p *Proto) WarmRead(n *machine.Node, addr mem.Addr) (Time, mem.State) {
	md := p.m.Model
	sp := p.m.Space
	if !sp.IsShared(addr) {
		n.RoundCounters().Inc(counter.LocalReads)
		return md.L1TagCheck + md.L2TagCheck + md.MemBlockRead(Time(p.m.Cfg.L2Block)), mem.Clean
	}
	home := sp.Home(addr)
	block := sp.Block(addr)
	if p.variant == Invalidate {
		if owner, ok := p.dir.Get(sp.BlockIndex(block)); ok && owner != n.ID {
			n.RoundCounters().Inc(counter.Forwards)
			n.Defer(machine.WarmEffect{Kind: machine.EffForward, Block: block, Aux: int64(owner)})
			return md.DMONMiss() + md.MemRequestDMON + md.Flight + dirLookupService, mem.Clean
		}
	}
	if home == n.ID {
		n.RoundCounters().Inc(counter.LocalReads)
		return md.L1TagCheck + md.L2TagCheck + md.MemBlockRead(Time(p.m.Cfg.L2Block)), mem.Clean
	}
	n.RoundCounters().Inc(counter.RemoteReads)
	return md.DMONMiss(), mem.Clean
}

// WarmDrain performs the coherence state transition for one entry — the
// same state machine as drainUpdate/drainInvalidate, without timing. The
// writer's own L2 (a write-allocate fill, the Exclusive upgrade) mutates
// inline; what crosses nodes goes through n.Defer: DMON-U update delivery,
// and I-SPEED invalidation broadcast plus directory ownership.
func (p *Proto) WarmDrain(n *machine.Node, e mem.WBEntry) {
	if !e.Shared {
		n.RoundCounters().Inc(counter.PrivateWrites)
		return
	}
	if p.variant == Update {
		n.RoundCounters().Inc(counter.Updates)
		n.Defer(machine.WarmEffect{Kind: machine.EffUpdate, Block: e.Block})
		return
	}
	block := e.Block
	st, present := n.L2.Lookup(block)
	if present && st == mem.Exclusive {
		n.RoundCounters().Inc(counter.OwnerWrites)
		return
	}
	if !present {
		n.RoundCounters().Inc(counter.WriteMisses)
		_, fst := p.WarmRead(n, block)
		n.WarmFillL2(block, fst)
	}
	n.RoundCounters().Inc(counter.Invalidations)
	n.Defer(machine.WarmEffect{Kind: machine.EffInval, Block: block})
	n.L2.SetState(block, mem.Exclusive)
}

// WarmDrainLatency is the Table 3 contention-free write transaction.
func (p *Proto) WarmDrainLatency() Time {
	if p.variant == Update {
		return p.m.Model.CoherenceDMONU(8)
	}
	return p.m.Model.CoherenceDMONI()
}

// WarmApply performs one recorded effect (n is the recording node). Round
// replays run sequentially in node-ID order with full mutation rights, so
// competing writers of one round converge exactly as sequential delivery
// order would: the last replayed invalidation clears every other copy and
// owns the block.
func (p *Proto) WarmApply(n *machine.Node, e machine.WarmEffect) {
	switch e.Kind {
	case machine.EffEvict:
		// The writeback's memory occupancy is timing-only.
		p.clearOwner(n, e.Block, mem.State(e.Aux))
	case machine.EffUpdate:
		p.deliverUpdate(n.ID, e.Block)
	case machine.EffInval:
		p.deliverInval(n.ID, e.Block)
		p.dir.Put(p.m.Space.BlockIndex(e.Block), n.ID)
	case machine.EffForward:
		on := p.m.Nodes[int(e.Aux)]
		if st, ok := on.L2.Lookup(e.Block); ok {
			if st == mem.Exclusive {
				on.L2.SetState(e.Block, mem.Shared)
			}
		} else {
			p.counters.Inc(counter.ForwardMisses)
		}
	}
}

// WarmMerge folds a node's scratch counters into the protocol bank.
func (p *Proto) WarmMerge(cs *counter.Set) { p.counters.Merge(cs) }

// WarmRoundQuota keeps I-SPEED rounds at the minimum worthwhile length:
// deferred invalidations leave stale copies readable until the round
// closes, and long rounds convert read misses the fine interleave would
// charge into phantom hits. The update variant replays losslessly and
// takes the full budget.
func (p *Proto) WarmRoundQuota() uint64 {
	if p.variant == Invalidate {
		return machine.WarmRoundMinQuota
	}
	return machine.WarmRoundMaxQuota
}

var _ machine.Warmer = (*Proto)(nil)

// SyncXmit broadcasts a synchronization message on the broadcast channel
// after a control-channel reservation.
func (p *Proto) SyncXmit(n *machine.Node, t Time) Time {
	md := p.m.Model
	res := p.reserve(n.ID, t)
	start := p.bcastFor(n.ID).Acquire(res, md.InvalXmit)
	return start + md.InvalXmit + md.Flight
}

var _ machine.Protocol = (*Proto)(nil)
