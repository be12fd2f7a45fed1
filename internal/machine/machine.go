// Package machine assembles one simulated multiprocessor: P nodes (each a
// processor, L1, L2, coalescing write buffer and a memory module) connected
// by a pluggable interconnect/coherence protocol (NetCache, LambdaNet, DMON-U
// or DMON-I). It exposes the execution-driven application API (Ctx) used by
// the workloads in internal/apps.
package machine

import (
	"context"
	"fmt"
	"runtime"

	"netcache/internal/mem"
	"netcache/internal/nodeset"
	"netcache/internal/optical"
	"netcache/internal/ring"
	"netcache/internal/sim"
	"netcache/internal/timing"
	"netcache/internal/trace"
)

// Time aliases the simulator timestamp.
type Time = sim.Time

// Addr aliases the simulated byte address.
type Addr = mem.Addr

// Config describes a machine.
type Config struct {
	Timing timing.Params

	L1Bytes   int // 4 KB
	L1Block   int // 32 B
	L2Bytes   int // 16 KB
	L2Block   int // 64 B
	WBEntries int // 16

	// Prefetch enables sequential next-block prefetching on second-level
	// read misses. The paper notes the base NetCache cannot overlap a
	// second outstanding access (a single tunable receiver per subnetwork)
	// but could "if it were extended with a larger number of tunable
	// receivers" (Section 6); this models that extension.
	Prefetch bool
}

// DefaultConfig returns the base machine of Section 4.1.
func DefaultConfig() Config {
	return Config{
		Timing:    timing.DefaultParams(),
		L1Bytes:   4 * 1024,
		L1Block:   32,
		L2Bytes:   16 * 1024,
		L2Block:   64,
		WBEntries: 16,
	}
}

// Protocol is the interconnect + coherence protocol plugged into a machine.
// All methods run in exclusive engine context and are presented transactions
// in nondecreasing time order.
type Protocol interface {
	// Name identifies the system ("netcache", "lambdanet", "dmon-u", "dmon-i").
	Name() string
	// ReadMiss services a second-level read miss on the block holding addr,
	// issued by node n, with tag checks completed at time t. It returns the
	// cycle at which the requested word reaches the processor and the state
	// the block should be installed in.
	ReadMiss(n *Node, addr Addr, t Time) (done Time, st mem.State)
	// DrainEntry performs the coherence transaction for write-buffer entry e
	// popped at time t. nextAt is when the node may start its next drain
	// (acknowledgement received / ownership obtained); memAt is when the
	// write is globally performed (for release fences).
	DrainEntry(n *Node, e mem.WBEntry, t Time) (nextAt, memAt Time)
	// SyncXmit broadcasts a small synchronization message from node n at
	// time t and returns its delivery cycle.
	SyncXmit(n *Node, t Time) Time
	// Evict notifies the protocol that node n dropped block (previously in
	// state st) at time t, so it can issue writebacks / directory updates.
	Evict(n *Node, block Addr, st mem.State, t Time)
	// Ring returns the shared cache, or nil when the system has none.
	Ring() *ring.Cache
	// Counters exposes protocol-level event counts for reporting.
	Counters() map[string]uint64
}

// Machine is one simulated multiprocessor instance (single use: build,
// set up application data, Run once, read stats).
type Machine struct {
	Cfg   Config
	Model timing.Model
	Eng   *sim.Engine
	Space *mem.Space
	Nodes []*Node
	Mems  []*optical.Memory
	Proto Protocol

	barriers map[int]*barrier
	locks    map[int]*lockState

	// Trace, when attached, records recent transactions for debugging.
	Trace *trace.Buffer

	// smp/warm/warmDrainLat drive interval-structured execution when a
	// SamplePlan is attached; all nil/zero in full-detail runs.
	smp          *sampler
	warm         Warmer
	warmDrainLat Time

	// sharers maps a shared block to the set of nodes whose L2 currently
	// holds it; pending maps a shared block to the nodes with an outstanding
	// read miss on it. Coherence fan-out (update/invalidation delivery,
	// critical-race poisoning) iterates these word-packed sets instead of
	// walking all P nodes, so delivery cost scales with the actual sharer
	// count rather than the machine size.
	sharers mem.BlockTable[nodeset.Set]
	pending mem.BlockTable[nodeset.Set]

	finished bool
}

// New builds a machine; proto constructs the protocol against it (the
// machine is fully wired except for Proto when the factory runs).
func New(cfg Config, proto func(*Machine) Protocol) *Machine {
	if cfg.L1Bytes == 0 {
		cfg = DefaultConfig()
	}
	model := timing.New(cfg.Timing)
	p := model.Procs
	m := &Machine{
		Cfg:      cfg,
		Model:    model,
		Eng:      sim.NewEngine(p),
		Space:    mem.NewSpace(p, cfg.L2Block),
		barriers: make(map[int]*barrier),
		locks:    make(map[int]*lockState),
	}
	// Backing arrays: one allocation per component kind instead of O(P)
	// little objects, so a P=256 machine is a handful of allocations.
	memBack := make([]optical.Memory, p)
	m.Mems = make([]*optical.Memory, p)
	for i := range memBack {
		memBack[i] = optical.Memory{
			HystDepth:   model.MemQueueHyst,
			UpdService:  model.MemUpdateService,
			ReadService: model.MemBlockRead,
		}
		m.Mems[i] = &memBack[i]
	}
	l1s := mem.NewCacheArray(p, cfg.L1Bytes, cfg.L1Block)
	l2s := mem.NewCacheArray(p, cfg.L2Bytes, cfg.L2Block)
	wbs := mem.NewWriteBufferArray(p, cfg.WBEntries)
	nodeBack := make([]Node, p)
	m.Nodes = make([]*Node, p)
	for i := range nodeBack {
		n := &nodeBack[i]
		n.ID = i
		n.M = m
		n.L1 = l1s[i]
		n.L2 = l2s[i]
		n.WB = wbs[i]
		n.pendingBlock = -1
		n.drainFn = n.drainStep
		n.drainAckFn = n.drainAck
		n.pfDoneFn = func(block, st int64) {
			n.prefetchDone(mem.Addr(block), mem.State(st))
		}
		n.readSvcFn = func() { n.read(n.proc, n.svcAddr) }
		n.writeSvcFn = func() { n.write(n.proc, n.svcAddr) }
		n.fenceSvcFn = func() { n.fence(n.proc) }
		m.Nodes[i] = n
	}
	m.pending.Reserve(p)
	m.sharers.Reserve(8 * p)
	m.Proto = proto(m)
	return m
}

// addSharer records that node id's L2 now holds shared block.
func (m *Machine) addSharer(block Addr, id int) {
	m.sharers.Ref(int64(block)).Add(id)
}

// dropSharer records that node id's L2 no longer holds shared block.
func (m *Machine) dropSharer(block Addr, id int) {
	s := m.sharers.Find(int64(block))
	if s == nil {
		return
	}
	s.Remove(id)
	if s.Empty() {
		m.sharers.Delete(int64(block))
	}
}

// Sharers returns the set of nodes whose L2 holds shared block. The set is a
// value; callers iterate it without holding a reference into the table.
func (m *Machine) Sharers(block Addr) nodeset.Set {
	s, _ := m.sharers.Get(int64(block))
	return s
}

// addPending records that node id has an outstanding read miss on block.
func (m *Machine) addPending(block Addr, id int) {
	m.pending.Ref(int64(block)).Add(id)
}

// dropPending clears node id's outstanding read miss on block.
func (m *Machine) dropPending(block Addr, id int) {
	s := m.pending.Find(int64(block))
	if s == nil {
		return
	}
	s.Remove(id)
	if s.Empty() {
		m.pending.Delete(int64(block))
	}
}

// Pending returns the set of nodes with an outstanding read miss on block.
func (m *Machine) Pending(block Addr) nodeset.Set {
	s, _ := m.pending.Get(int64(block))
	return s
}

// P returns the number of processors.
func (m *Machine) P() int { return len(m.Nodes) }

// AttachTrace starts recording the last capacity transactions.
func (m *Machine) AttachTrace(capacity int) *trace.Buffer {
	m.Trace = trace.New(capacity)
	return m.Trace
}

// AttachSampler switches the machine to interval-structured execution under
// plan: references outside measured intervals run functionally (state, not
// timing) through the protocol's Warmer, measured intervals run the full
// detailed path between counter checkpoints, and collect attaches the
// per-interval record to RunStats. Must be called before Run; fails when the
// protocol does not implement Warmer.
func (m *Machine) AttachSampler(plan SamplePlan) error {
	w, ok := m.Proto.(Warmer)
	if !ok {
		return fmt.Errorf("machine: protocol %s does not support functional warmup", m.Proto.Name())
	}
	if plan.IntervalRefs == 0 {
		plan.IntervalRefs = 32768
	}
	if plan.Period == 0 {
		plan.Period = 16
	}
	m.warm = w
	m.warmDrainLat = w.WarmDrainLatency()
	m.smp = &sampler{
		m:          m,
		plan:       plan,
		period:     plan.Period,
		workers:    runtime.GOMAXPROCS(0),
		roundQuota: w.WarmRoundQuota(),
		doneCh:     make(chan struct{}, len(m.Nodes)),
	}
	m.smp.schedule()
	return nil
}

// Run executes body on every processor and returns the collected run
// statistics. A machine can only run once.
func (m *Machine) Run(body func(*Ctx)) (RunStats, error) {
	return m.RunContext(context.Background(), body)
}

// RunContext is Run with cancellation: when ctx is cancelled (or its
// deadline passes) the engine aborts the simulation promptly, joins every
// processor goroutine, and returns an error wrapping ctx.Err(). The context
// is only polled between scheduler steps, so a context that never fires
// cannot change the simulated timeline.
func (m *Machine) RunContext(ctx context.Context, body func(*Ctx)) (RunStats, error) {
	if m.finished {
		return RunStats{}, fmt.Errorf("machine: Run called twice")
	}
	m.finished = true
	if ctx != nil && ctx.Done() != nil {
		m.Eng.Interrupt = ctx.Err
	}
	cycles, err := m.Eng.Run(func(p *sim.Proc) {
		n := m.Nodes[p.ID]
		n.proc = p
		if s := m.smp; s != nil {
			// A processor finishing (or unwinding) inside a parallel round must
			// not reach the engine until the round closes.
			defer s.procExit(n, p)
		}
		body(&Ctx{M: m, P: p, N: n})
	})
	rs := m.collect(cycles)
	return rs, err
}
