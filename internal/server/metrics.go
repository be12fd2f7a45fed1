package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"netcache/internal/cluster"
	"netcache/internal/stats"
)

// metrics collects the service counters rendered on GET /metrics in the
// Prometheus text exposition format. Simulation latencies reuse the
// simulator's own log2-bucketed stats.Histogram, recorded in microseconds
// and exposed with power-of-two le boundaries in seconds.
type metrics struct {
	mu            sync.Mutex
	requests      map[string]uint64 // "path|code" -> count
	simulations   uint64            // simulations actually executed
	storeServed   uint64            // requests answered from the store
	rejected      uint64            // requests refused by the admission queue
	storePutFails uint64            // store writes that failed (degraded-mode trigger)
	fillsRefused  uint64            // fills not stored because the value is not JSON
	simDur        map[string]*stats.Histogram

	// Cluster counters.
	clusterProxied    map[string]uint64 // peer -> misses answered by that peer
	clusterProxyFails map[string]uint64 // peer -> proxy attempts that failed over
	clusterFallbacks  uint64            // replicas unreachable -> recomputed locally
	membershipSyncs   uint64            // memberships adopted via epoch-gossip pulls
	rebalancePasses   uint64            // rebalance passes started
	rebalanceMoved    uint64            // keys pushed to a replica that lacked them
	rebalanceSkipped  uint64            // keys the replica already had
	rebalanceErrors   uint64            // failed rebalance pushes/reads (retried next pass)
	rebalanceReceived uint64            // keys stored from peers' rebalance pushes
	upstreamHits      uint64            // upstream read-through hits
	upstreamMisses    uint64            // upstream lookups that missed
	upstreamErrors    uint64            // upstream lookups that failed
}

func newMetrics() *metrics {
	return &metrics{
		requests:          make(map[string]uint64),
		simDur:            make(map[string]*stats.Histogram),
		clusterProxied:    make(map[string]uint64),
		clusterProxyFails: make(map[string]uint64),
	}
}

// peerAdd bumps one per-peer counter map under mu.
func (m *metrics) peerAdd(mp map[string]uint64, peer string) {
	m.mu.Lock()
	mp[peer]++
	m.mu.Unlock()
}

func (m *metrics) request(path string, code int) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s|%d", path, code)]++
	m.mu.Unlock()
}

func (m *metrics) simDone(app string, micros int64) {
	m.mu.Lock()
	m.simulations++
	h := m.simDur[app]
	if h == nil {
		h = &stats.Histogram{}
		m.simDur[app] = h
	}
	h.Add(micros)
	m.mu.Unlock()
}

func (m *metrics) add(field *uint64) { m.addN(field, 1) }

func (m *metrics) addN(field *uint64, n int) {
	m.mu.Lock()
	*field += uint64(n)
	m.mu.Unlock()
}

// render writes the exposition text for s. The store, injector, cluster,
// and upstream sections appear only when the respective piece is wired.
func (m *metrics) render(b *strings.Builder, s *Server, degraded bool) {
	st := s.cfg.Store
	inj := s.cfg.Inject

	// Cluster and upstream state is snapshotted before taking m.mu: each
	// has its own lock, and lock-ordering discipline is cheaper than a
	// deadlock.
	var peers []cluster.PeerStatus
	var epoch uint64
	var left, upstreamUp bool
	rebal := s.RebalanceStatus()
	if cl := s.cfg.Cluster; cl != nil {
		peers, epoch, left = cl.Status(), cl.Epoch(), cl.Left()
	}
	if up := s.cfg.Upstream; up != nil {
		upstreamUp = s.upstreamHealth.Up(up.BaseURL)
	}

	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	fmt.Fprintf(b, "# HELP netcached_requests_total HTTP requests by path and status code.\n")
	fmt.Fprintf(b, "# TYPE netcached_requests_total counter\n")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		path, code, _ := strings.Cut(k, "|")
		fmt.Fprintf(b, "netcached_requests_total{path=%q,code=%q} %d\n", path, code, m.requests[k])
	}

	counter("netcached_simulations_total", "Simulations executed (store misses after coalescing).", m.simulations)
	counter("netcached_store_served_total", "Requests answered from the result store.", m.storeServed)
	counter("netcached_coalesced_total", "Requests that joined an identical in-flight simulation.", uint64(s.runs.Coalesced.Load()))
	counter("netcached_admission_rejected_total", "Requests refused with 429 by the admission queue.", m.rejected)
	counter("netcached_store_put_failures_total", "Store writes that failed; repeated failures trigger degraded mode.", m.storePutFails)
	counter("netcached_store_fills_refused_total", "Peer, upstream or simulated results not stored because they are not JSON.", m.fillsRefused)
	fmt.Fprintf(b, "# HELP netcached_parsed_specs_total /v1/run bodies found in the parsed-spec table (hit) or parsed (miss).\n")
	fmt.Fprintf(b, "# TYPE netcached_parsed_specs_total counter\n")
	fmt.Fprintf(b, "netcached_parsed_specs_total{result=\"hit\"} %d\n", s.specs.hits.Load())
	fmt.Fprintf(b, "netcached_parsed_specs_total{result=\"miss\"} %d\n", s.specs.misses.Load())
	gauge("netcached_degraded", "1 while in degraded (read-only) mode, else 0.", gauge01(degraded))
	gauge("netcached_inflight_simulations", "Simulations executing right now.", s.runs.Running.Load())
	gauge("netcached_queued_simulations", "Simulations admitted but waiting for a worker.", s.runs.Waiting.Load())

	if st != nil {
		ss := st.Stats()
		counter("netcached_store_hits_total", "Result-store hits.", ss.Hits)
		counter("netcached_store_hot_hits_total", "Store hits served from the hot (per-key file) tier.", ss.HotHits)
		counter("netcached_store_hot_memory_hits_total", "Hot hits answered from remembered verified bytes, without a file read.", ss.HotMemoryHits)
		counter("netcached_store_cold_hits_total", "Store hits served from cold segment files.", ss.ColdHits)
		counter("netcached_store_misses_total", "Result-store misses (absent or corrupt entries).", ss.Misses)
		counter("netcached_store_corrupt_total", "Store entries dropped for failing checksum validation.", ss.Corrupt)
		counter("netcached_store_evictions_total", "Store entries evicted by the size bound.", ss.Evictions)
		counter("netcached_store_promotions_total", "Cold hits rewritten back into the hot tier.", ss.Promotions)
		counter("netcached_store_reaped_temps_total", "Stale put-* and seg-*.tmp temp files reaped at store open.", ss.ReapedTemps)
		counter("netcached_store_scrubs_total", "Completed background scrub passes.", ss.Scrubs)
		counter("netcached_store_quarantined_total", "Corrupt entries / segment regions quarantined.", ss.Quarantined)
		counter("netcached_store_compactions_total", "Completed compaction passes.", ss.Compactions)
		counter("netcached_store_migrated_total", "Entries migrated from the hot tier into cold segments.", ss.Migrated)
		counter("netcached_store_segment_rewrites_total", "Sparse segments rewritten to reclaim dead space.", ss.SegmentRewrites)
		counter("netcached_store_segments_dropped_total", "Whole segments evicted by the size bound.", ss.SegmentsDropped)
		counter("netcached_store_salvaged_segments_total", "Segments whose index was rebuilt by scan at open.", ss.SalvagedSegments)
		counter("netcached_store_compact_errors_total", "Failed migration batches or segment rewrites.", ss.CompactErrors)
		gauge("netcached_store_entries", "Live entries across both store tiers.", int64(ss.Entries))
		gauge("netcached_store_bytes", "Physical bytes on disk across both store tiers.", ss.Bytes)
		gauge("netcached_store_hot_entries", "Entries resident in the hot tier.", int64(ss.HotEntries))
		gauge("netcached_store_hot_bytes", "Bytes resident in the hot tier.", ss.HotBytes)
		gauge("netcached_store_cold_entries", "Live entries resident in cold segments.", int64(ss.ColdEntries))
		gauge("netcached_store_cold_bytes", "Live record bytes inside cold segments.", ss.ColdBytes)
		gauge("netcached_store_cold_dead_bytes", "Dead segment space awaiting compaction.", ss.ColdDeadBytes)
		gauge("netcached_store_segments", "Resident cold segment files.", int64(ss.Segments))
	}

	if s.cfg.Cluster != nil {
		fmt.Fprintf(b, "# HELP netcached_cluster_peer_up 1 while the peer answers probes/proxies, else 0 (self always 1).\n")
		fmt.Fprintf(b, "# TYPE netcached_cluster_peer_up gauge\n")
		for _, ps := range peers {
			fmt.Fprintf(b, "netcached_cluster_peer_up{peer=%q} %d\n", ps.URL, gauge01(ps.Up))
		}
		renderPeerCounter(b, "netcached_cluster_proxied_total",
			"Misses proxied to and answered by the key's owner/replicas, by peer.", m.clusterProxied)
		renderPeerCounter(b, "netcached_cluster_proxy_failures_total",
			"Proxy attempts that failed over to the next replica or to local recompute, by peer.", m.clusterProxyFails)
		counter("netcached_cluster_fallback_recomputes_total",
			"Misses recomputed locally because every replica was unreachable.", m.clusterFallbacks)
		gauge("netcached_cluster_epoch", "Membership epoch this node currently routes with.", int64(epoch))
		gauge("netcached_cluster_left", "1 after this node is decommissioned out of the membership (draining), else 0.", gauge01(left))
		counter("netcached_cluster_membership_syncs_total", "Memberships adopted via epoch-gossip pulls.", m.membershipSyncs)
		counter("netcached_cluster_rebalance_passes_total", "Rebalance passes started.", m.rebalancePasses)
		counter("netcached_cluster_rebalance_moved_total", "Keys pushed by the rebalance pass to a replica that lacked them.", m.rebalanceMoved)
		counter("netcached_cluster_rebalance_skipped_total", "Keys the rebalance pass offered to a replica that already held them.", m.rebalanceSkipped)
		counter("netcached_cluster_rebalance_errors_total", "Failed rebalance reads/pushes, retried on the next pass.", m.rebalanceErrors)
		counter("netcached_cluster_rebalance_received_total", "Keys stored from peers' rebalance pushes.", m.rebalanceReceived)
		gauge("netcached_cluster_rebalance_done", "1 while the last rebalance pass completed with nothing owed at the current epoch, else 0.", gauge01(rebal.Done))
		gauge("netcached_cluster_rebalance_owed", "Key deliveries the last completed rebalance pass left undone.", int64(rebal.Owed))
	}
	if s.cfg.Upstream != nil {
		counter("netcached_upstream_hits_total", "Misses answered by the read-through upstream tier.", m.upstreamHits)
		counter("netcached_upstream_misses_total", "Upstream lookups that missed (simulated locally).", m.upstreamMisses)
		counter("netcached_upstream_errors_total", "Upstream lookups that failed outright.", m.upstreamErrors)
		gauge("netcached_upstream_up", "1 while the upstream is up, else 0; lookups are skipped until a probe revives it.", gauge01(upstreamUp))
	}

	if inj != nil {
		sites := inj.Stats()
		names := make([]string, 0, len(sites))
		for name := range sites {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(b, "# HELP netcached_chaos_injected_total Faults injected by the chaos injector, by site.\n")
		fmt.Fprintf(b, "# TYPE netcached_chaos_injected_total counter\n")
		for _, name := range names {
			fmt.Fprintf(b, "netcached_chaos_injected_total{site=%q} %d\n", name, sites[name].Fired)
		}
	}

	fmt.Fprintf(b, "# HELP netcached_sim_duration_seconds Wall-clock simulation latency by application.\n")
	fmt.Fprintf(b, "# TYPE netcached_sim_duration_seconds histogram\n")
	apps := make([]string, 0, len(m.simDur))
	for app := range m.simDur {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		h := m.simDur[app]
		hi := 0
		for i, c := range h.Buckets {
			if c > 0 {
				hi = i
			}
		}
		var cum uint64
		for i := 0; i <= hi; i++ {
			cum += h.Buckets[i]
			// Bucket i holds samples in [2^i, 2^(i+1)) microseconds.
			le := float64(uint64(1)<<uint(i+1)) / 1e6
			fmt.Fprintf(b, "netcached_sim_duration_seconds_bucket{app=%q,le=%q} %d\n", app, trimFloat(le), cum)
		}
		fmt.Fprintf(b, "netcached_sim_duration_seconds_bucket{app=%q,le=\"+Inf\"} %d\n", app, h.N)
		fmt.Fprintf(b, "netcached_sim_duration_seconds_sum{app=%q} %s\n", app, trimFloat(float64(h.Sum)/1e6))
		fmt.Fprintf(b, "netcached_sim_duration_seconds_count{app=%q} %d\n", app, h.N)
	}
}

// gauge01 renders a flag as a 0/1 gauge value.
func gauge01(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// renderPeerCounter writes one peer-labelled counter family, peers sorted.
func renderPeerCounter(b *strings.Builder, name, help string, mp map[string]uint64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	peers := make([]string, 0, len(mp))
	for p := range mp {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		fmt.Fprintf(b, "%s{peer=%q} %d\n", name, p, mp[p])
	}
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
