// Package lambdanet implements the LambdaNet-based multiprocessor of Section
// 2.3: one WDM channel per node (the node transmits on it, every other node
// has a fixed receiver), no medium-access arbitration, and the write-update
// coherence protocol the paper pairs with it (memory always current,
// coalescing write buffers, broadcast updates, point-to-point reads).
//
// Reads and writes of a node share its single transmit channel (they are not
// decoupled), and updates from different nodes have no serialization point —
// the two contention characteristics the paper identifies for this system.
package lambdanet

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

// Proto is the LambdaNet protocol instance.
type Proto struct {
	m      *machine.Machine
	nodeCh []optical.Timeline // per-node transmit channel (one backing array)

	// deliverFn is the update-delivery event bound once, scheduled through
	// ScheduleArgs so each drained entry does not allocate a closure.
	deliverFn func(writer, block int64)

	counters counter.Set
}

// New builds a LambdaNet protocol over m.
func New(m *machine.Machine) *Proto {
	p := &Proto{m: m}
	p.nodeCh = make([]optical.Timeline, m.P())
	p.deliverFn = func(writer, block int64) {
		p.deliverUpdate(int(writer), mem.Addr(block))
	}
	return p
}

// Name identifies the system.
func (p *Proto) Name() string { return "lambdanet" }

// Ring returns nil: the LambdaNet has no shared cache.
func (p *Proto) Ring() *ring.Cache { return nil }

var _ machine.Protocol = (*Proto)(nil)

// Counters returns protocol event counts plus channel utilization.
func (p *Proto) Counters() map[string]uint64 {
	var busy, wait uint64
	for _, ch := range p.nodeCh {
		busy += uint64(ch.Busy)
		wait += uint64(ch.Waited)
	}
	p.counters.Store(counter.NodechBusyCycles, busy)
	p.counters.Store(counter.NodechWaitCycles, wait)
	return p.counters.Map()
}

// ReadMiss: request on the requester's channel, reply on the home's channel
// (Table 2, 111 pcycles contention-free).
func (p *Proto) ReadMiss(n *machine.Node, addr mem.Addr, t Time) (Time, mem.State) {
	md := p.m.Model
	sp := p.m.Space
	home := sp.Home(addr)
	if !sp.IsShared(addr) || home == n.ID {
		ready := p.m.Mems[n.ID].ReadBlock(t, Time(p.m.Cfg.L2Block))
		p.counters.Inc(counter.LocalReads)
		return ready, mem.Clean
	}
	reqStart := p.nodeCh[n.ID].Acquire(t, md.MemRequest)
	atHome := reqStart + md.MemRequest + md.Flight
	ready := p.m.Mems[home].ReadBlock(atHome, Time(p.m.Cfg.L2Block))
	start := p.nodeCh[home].Acquire(ready, md.BlockTransfer)
	p.counters.Inc(counter.RemoteReads)
	return start + md.BlockTransfer + md.Flight + md.NIToL2, mem.Clean
}

// DrainEntry: the update is broadcast on the writer's own channel with no
// arbitration (Table 3, 24 pcycles contention-free).
func (p *Proto) DrainEntry(n *machine.Node, e mem.WBEntry, t Time) (nextAt, memAt Time) {
	md := p.m.Model
	if !e.Shared {
		done, _ := p.m.Mems[n.ID].Update(t + md.L2TagCheck)
		p.counters.Inc(counter.PrivateWrites)
		return t + md.L2TagCheck + 1, done
	}
	home := p.m.Space.Home(e.Block)
	tNI := t + md.L2TagCheck + md.WriteToNI
	xmit := md.UpdateXmitLambda(e.Words())
	start := p.nodeCh[n.ID].Acquire(tNI, xmit)
	delivery := start + xmit + md.Flight
	p.counters.Inc(counter.Updates)

	p.m.Eng.ScheduleArgs(delivery, p.deliverFn, int64(n.ID), int64(e.Block))

	memDone, ackAt := p.m.Mems[home].Update(delivery)
	if ackAt < delivery {
		ackAt = delivery
	}
	ackStart := p.nodeCh[home].Acquire(ackAt, md.AckXmit)
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

// SyncXmit broadcasts a synchronization message on the node's own channel.
func (p *Proto) SyncXmit(n *machine.Node, t Time) Time {
	md := p.m.Model
	start := p.nodeCh[n.ID].Acquire(t, 2)
	return start + 2 + md.Flight
}

// Evict is a no-op: memory is always current under update coherence.
func (p *Proto) Evict(n *machine.Node, block mem.Addr, st mem.State, t Time) {}

// ---- Functional warmup (machine.Warmer) --------------------------------

// WarmRead charges the Table 2 contention-free miss latency; the LambdaNet
// has no protocol state beyond the caches, so only the counters move — into
// the node's scratch bank.
func (p *Proto) WarmRead(n *machine.Node, addr mem.Addr) (Time, mem.State) {
	md := p.m.Model
	sp := p.m.Space
	if !sp.IsShared(addr) || sp.Home(addr) == n.ID {
		n.RoundCounters().Inc(counter.LocalReads)
		return md.L1TagCheck + md.L2TagCheck + md.MemBlockRead(Time(p.m.Cfg.L2Block)), mem.Clean
	}
	n.RoundCounters().Inc(counter.RemoteReads)
	return md.LambdaMiss(), mem.Clean
}

// WarmDrain delivers one coalesced update functionally: the snooper walk the
// detailed path schedules touches other nodes' caches, so it goes through
// n.Defer.
func (p *Proto) WarmDrain(n *machine.Node, e mem.WBEntry) {
	if !e.Shared {
		n.RoundCounters().Inc(counter.PrivateWrites)
		return
	}
	n.RoundCounters().Inc(counter.Updates)
	n.Defer(machine.WarmEffect{Kind: machine.EffUpdate, Block: e.Block})
}

// WarmDrainLatency is the Table 3 contention-free 8-word write transaction.
func (p *Proto) WarmDrainLatency() Time { return p.m.Model.CoherenceLambda(8) }

// WarmApply performs a recorded update delivery (n is the recording writer).
func (p *Proto) WarmApply(n *machine.Node, e machine.WarmEffect) {
	if e.Kind == machine.EffUpdate {
		p.deliverUpdate(n.ID, e.Block)
	}
}

// WarmMerge folds a node's scratch counters into the protocol bank.
func (p *Proto) WarmMerge(cs *counter.Set) { p.counters.Merge(cs) }

// WarmRoundQuota takes the full round budget: deferred update deliveries
// refresh data in caches that already hold the block, so replaying them at
// round close loses nothing.
func (p *Proto) WarmRoundQuota() uint64 { return machine.WarmRoundMaxQuota }

var _ machine.Warmer = (*Proto)(nil)
