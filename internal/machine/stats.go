package machine

import (
	"netcache/internal/proto/counter"
	"netcache/internal/ring"
)

// RunStats is the outcome of one simulation run.
type RunStats struct {
	System string
	Procs  int
	Cycles Time

	Nodes []NodeStats
	Ring  ring.Stats
	Proto map[string]uint64

	// Sampling holds the per-interval record of a sampled run; nil (and
	// omitted from the JSON encoding) for full-detail runs, which therefore
	// keep their pre-sampling result bytes.
	Sampling *SampleStats `json:",omitempty"`
}

func (m *Machine) collect(cycles Time) RunStats {
	if m.warm != nil {
		// Functional steps count into per-node scratch banks; fold in what no
		// round close has merged yet.
		for _, n := range m.Nodes {
			m.warm.WarmMerge(&n.scratch)
			n.scratch = counter.Set{}
		}
	}
	rs := RunStats{
		System: m.Proto.Name(),
		Procs:  m.P(),
		Cycles: cycles,
		Proto:  m.Proto.Counters(),
	}
	rs.Nodes = make([]NodeStats, m.P())
	for i, n := range m.Nodes {
		rs.Nodes[i] = n.St
	}
	if rc := m.Proto.Ring(); rc != nil {
		rs.Ring = rc.Stats
	}
	if rs.Proto == nil {
		rs.Proto = map[string]uint64{}
	}
	var memReads, memUpds, memStall uint64
	for _, mm := range m.Mems {
		r, u, s := mm.Stats()
		memReads += r
		memUpds += u
		memStall += uint64(s)
	}
	rs.Proto["mem_reads"] = memReads
	rs.Proto["mem_updates"] = memUpds
	rs.Proto["mem_stall_cycles"] = memStall
	if m.smp != nil {
		rs.Sampling = m.smp.finish()
	}
	return rs
}

// Totals aggregates the node counters.
func (rs RunStats) Totals() NodeStats {
	var t NodeStats
	for _, n := range rs.Nodes {
		t.Busy += n.Busy
		t.Reads += n.Reads
		t.Writes += n.Writes
		t.L1Hits += n.L1Hits
		t.WBHits += n.WBHits
		t.L2Hits += n.L2Hits
		t.LocalMiss += n.LocalMiss
		t.RemoteMiss += n.RemoteMiss
		t.SharedHits += n.SharedHits
		t.ReadStall += n.ReadStall
		t.L2MissLat += n.L2MissLat
		t.WriteStall += n.WriteStall
		t.SyncStall += n.SyncStall
		t.FenceStall += n.FenceStall
		t.MissHist.Merge(&n.MissHist)
		t.UpdatesIssued += n.UpdatesIssued
		t.RaceDelays += n.RaceDelays
		t.InvalsSeen += n.InvalsSeen
		t.UpdatesSeen += n.UpdatesSeen
		t.Prefetches += n.Prefetches
		t.PrefetchHits += n.PrefetchHits
	}
	return t
}

// L2Misses returns the total second-level read misses.
func (s NodeStats) L2Misses() uint64 { return s.LocalMiss + s.RemoteMiss }

// SharedHitRate is the fraction of remote (shared) second-level read misses
// satisfied by the NetCache shared cache.
func (rs RunStats) SharedHitRate() float64 {
	t := rs.Totals()
	if t.RemoteMiss == 0 {
		return 0
	}
	return float64(t.SharedHits) / float64(t.RemoteMiss)
}

// AvgL2MissLatency is the mean second-level read miss latency in pcycles.
func (rs RunStats) AvgL2MissLatency() float64 {
	t := rs.Totals()
	if t.L2Misses() == 0 {
		return 0
	}
	return float64(t.L2MissLat) / float64(t.L2Misses())
}

// ReadLatencyFraction is read stall time as a fraction of total machine time
// (P * Cycles).
func (rs RunStats) ReadLatencyFraction() float64 {
	if rs.Cycles == 0 || rs.Procs == 0 {
		return 0
	}
	return float64(rs.Totals().ReadStall) / (float64(rs.Cycles) * float64(rs.Procs))
}

// SyncFraction is synchronization stall time as a fraction of machine time.
func (rs RunStats) SyncFraction() float64 {
	if rs.Cycles == 0 || rs.Procs == 0 {
		return 0
	}
	return float64(rs.Totals().SyncStall) / (float64(rs.Cycles) * float64(rs.Procs))
}
