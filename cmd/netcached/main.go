// Command netcached serves netcache simulations over HTTP with a
// content-addressed result store: identical requests are answered from disk,
// concurrent identical requests coalesce into one simulation, and only
// genuinely novel specs burn CPU (simulations are bit-deterministic, so a
// result is a pure function of its spec).
//
// Usage:
//
//	netcached -addr :8100 -store /var/cache/netcached \
//	          -store-max-bytes 1073741824 -j 8 -timeout 10m \
//	          [-cold-age 1h] [-compact-interval 10m] \
//	          [-scrub-interval 1h] [-pprof localhost:6060] \
//	          [-chaos "seed=42,store.write=0.1,http.error=0.05"] \
//	          [-peers http://a:8100,http://b:8100 -self http://a:8100] \
//	          [-vnodes 64] [-replication 1] [-upstream http://hub:8100] \
//	          [-probe-interval 2s] [-join http://a:8100] \
//	          [-rebalance-interval 30s] [-rebalance-rate 200]
//
//	netcached -admin http://a:8100 -decommission http://b:8100   # one-shot
//	netcached -admin http://a:8100 -remove http://c:8100         # one-shot
//
// Endpoints:
//
//	POST /v1/run                 one RunSpec -> Result JSON
//	POST /v1/batch               {"specs":[...]} -> {"results":[...]} in spec order
//	GET  /v1/apps                the Table 4 application list
//	GET  /v1/stats               per-tier store occupancy and maintenance counters
//	GET  /v1/result/{key}        store-only lookup (upstream read-through)
//	POST /v1/results/missing     which of a key list the store lacks (internode presence check)
//	POST /v1/results             multi-key replica push, length-prefixed frames (internode)
//	GET  /v1/cluster             ring, per-peer health, rebalance status (done, owed)
//	GET  /v1/cluster/membership  current membership (POST: join/remove/decommission/adopt)
//	GET  /v1/cluster/digest      per-range digests of the keys shared with ?peer= (internode)
//	GET  /healthz                liveness (503 while draining)
//	GET  /metrics                Prometheus text format
//
// Clustering: -peers turns N daemons into one logical store. Every node
// gets the same -peers list plus its own entry as -self; a consistent-hash
// ring assigns each result key an owner, non-owners proxy misses to it, and
// when the owner is unreachable they recompute locally and push the result
// to it once it returns. -upstream chains a read-through parent cache that
// is consulted (store-only) before simulating; a transport failure takes it
// out of the chain until its 2 s health probe finds it back.
//
// Membership is versioned: every change (POST /v1/cluster/membership, the
// -join handshake, or the one-shot -admin mode) produces a new ring with a
// higher epoch, gossiped via epoch headers on probes and proxy traffic.
// One rebalance pass per node keeps every stored key on its replicas: it
// runs on every epoch change, whenever a peer comes back up, and every
// -rebalance-interval, and it is rate-limited by -rebalance-rate. A pass
// cut short keeps no progress: the next one walks every key range again.
// A decommissioned node keeps serving while it drains; stop it once GET
// /v1/cluster reports rebalance done at the decommission epoch. With a
// -store, the adopted membership is persisted under <store>/cluster/ and
// resumed at boot.
//
// Example:
//
//	curl -s localhost:8100/v1/run -d '{"App":"sor","System":"netcache","Scale":0.25}'
//
// On SIGINT/SIGTERM the daemon drains: new simulations are refused,
// in-flight ones finish within -drain, and past that deadline they are
// aborted through the simulation engines' interrupt path.
//
// The -chaos flag arms deterministic fault injection (store I/O errors and
// corruption, HTTP errors/disconnects/latency, worker panics and stalls)
// for resilience testing; see internal/faults for the site names and
// DESIGN.md for the failure model. Never enable it in production.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"netcache/internal/cluster"
	"netcache/internal/faults"
	"netcache/internal/server"
	"netcache/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8100", "listen address")
		storeDir = flag.String("store", "", "result store directory (empty = no persistent store)")
		maxBytes = flag.Int64("store-max-bytes", 1<<30, "store size bound; LRU-evicted beyond it, and beyond a quarter of it the oldest hot entries compact into cold segments (0 = unbounded)")
		jobs     = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 15*time.Minute, "per-simulation wall-clock limit (0 = none)")
		queue    = flag.Int("queue", 64, "admission queue depth beyond the worker count")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown drain deadline before in-flight simulations are aborted")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		scrub    = flag.Duration("scrub-interval", 0, "background store scrub period (0 = disabled)")
		chaos    = flag.String("chaos", "", `fault injection spec, e.g. "seed=42,store.write=0.1,http.error=0.05" (testing only)`)

		coldAge    = flag.Duration("cold-age", time.Hour, "idle age after which a hot entry migrates to the cold tier")
		compactIvl = flag.Duration("compact-interval", 10*time.Minute, "background compaction period (0 = disabled)")

		peers       = flag.String("peers", "", "comma-separated base URLs of every cluster member, self included (empty = standalone)")
		self        = flag.String("self", "", "this node's entry in -peers (its advertised base URL)")
		vnodes      = flag.Int("vnodes", 64, "virtual nodes per peer on the consistent-hash ring")
		replication = flag.Int("replication", 1, "distinct peers per key (owner first); clamped to the peer count")
		upstream    = flag.String("upstream", "", "base URL of a read-through parent cache consulted before simulating (empty = none)")
		probeIvl    = flag.Duration("probe-interval", 2*time.Second, "peer health-probe period")

		join      = flag.String("join", "", "base URL of an existing member to join at boot (requires -self; -peers defaults to just -self)")
		rebalIvl  = flag.Duration("rebalance-interval", 30*time.Second, "background rebalance pass period (doubles as its retry schedule)")
		rebalRate = flag.Int("rebalance-rate", 0, "rebalance push rate limit, keys/sec (0 = unlimited)")

		admin        = flag.String("admin", "", "one-shot admin mode: send a membership change via this member, print the new membership, exit")
		decommission = flag.String("decommission", "", "with -admin: drain-then-leave this peer (it streams its keys away; stop it once rebalance reports done)")
		remove       = flag.String("remove", "", "with -admin: drop this dead peer from the membership immediately")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "netcached: ", log.LstdFlags)

	if *admin != "" {
		runAdmin(logger, *admin, *decommission, *remove)
		return
	}
	if *decommission != "" || *remove != "" {
		logger.Fatal("-decommission/-remove require -admin")
	}

	inj, err := faults.Parse(*chaos)
	if err != nil {
		logger.Fatalf("-chaos: %v", err)
	}
	if inj != nil {
		logger.Printf("CHAOS MODE: injecting faults [%s] — do not use in production", inj)
	}

	if *pprof != "" {
		// The profiling endpoint lives on its own listener so it can be bound
		// to loopback while the API address stays public.
		pl, err := net.Listen("tcp", *pprof)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("pprof on http://%s/debug/pprof/", pl.Addr())
		go func() {
			if err := http.Serve(pl, nil); err != nil {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}

	var st *store.Store
	if *storeDir != "" {
		var fsys store.FS
		if inj != nil {
			fsys = store.NewFaultFS(inj)
		}
		var err error
		st, err = store.OpenOptions(*storeDir, store.Options{
			MaxBytes: *maxBytes,
			ColdAge:  *coldAge,
			FS:       fsys,
		})
		if err != nil {
			logger.Fatal(err)
		}
		s := st.Stats()
		logger.Printf("store %s (%d hot + %d cold entries in %d segments, %d bytes, %d stale temps reaped, %d segments salvaged)",
			*storeDir, s.HotEntries, s.ColdEntries, s.Segments, s.Bytes, s.ReapedTemps, s.SalvagedSegments)
		if *scrub > 0 {
			st.StartScrubber(*scrub)
			logger.Printf("scrubbing store every %v", *scrub)
		}
		if *compactIvl > 0 {
			st.StartCompactor(*compactIvl)
			logger.Printf("compacting store every %v (cold-age %v)", *compactIvl, *coldAge)
		}
		defer st.Close()
	}

	var cl *cluster.Cluster
	if *join != "" && *self == "" {
		logger.Fatal("-join requires -self")
	}
	if *join != "" && *peers == "" {
		// A joiner boots as a single-node ring; the join handshake below
		// (and gossip after it) replaces that with the real membership.
		*peers = *self
	}
	if *peers != "" {
		list := strings.Split(*peers, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:          *self,
			Peers:         list,
			VNodes:        *vnodes,
			Replication:   *replication,
			ProbeInterval: *probeIvl,
			Log:           logger,
		})
		if err != nil {
			logger.Fatalf("-peers: %v", err)
		}
		if *storeDir != "" {
			// Membership survives restarts alongside the store: adopt the
			// persisted ring (epochs make stale files harmless — gossip wins
			// if the cluster moved on) and checkpoint every change.
			memPath := filepath.Join(*storeDir, "cluster", "membership.json")
			if m, ok := cluster.LoadMembership(memPath); ok {
				if changed, err := cl.Adopt(m); err != nil {
					logger.Printf("cluster: persisted membership %s: %v", memPath, err)
				} else if changed {
					logger.Printf("cluster: resumed membership epoch %d (%d peers) from %s", m.Epoch, len(m.Peers), memPath)
				}
			}
			cl.OnChange(func(m cluster.Membership) {
				if err := cluster.SaveMembership(memPath, m); err != nil {
					logger.Printf("cluster: persisting membership: %v", err)
				}
			})
		}
		logger.Printf("cluster: epoch %d, %d peers, %d vnodes, replication %d, self %s",
			cl.Epoch(), len(cl.Peers()), cl.Ring().VNodes(), cl.Replication(), cl.Self())
	} else if *self != "" {
		logger.Fatal("-self requires -peers")
	}

	var up *server.Client
	if *upstream != "" {
		up = &server.Client{BaseURL: *upstream, Retry: server.PeerRetryPolicy()}
		logger.Printf("upstream read-through tier: %s", *upstream)
	}

	srv := server.New(server.Config{
		Store:             st,
		Workers:           *jobs,
		QueueDepth:        *queue,
		Timeout:           *timeout,
		Log:               logger,
		Inject:            inj,
		Cluster:           cl,
		Upstream:          up,
		RebalanceInterval: *rebalIvl,
		RebalanceRate:     *rebalRate,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s", l.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	if *join != "" {
		// Announce ourselves once we can answer the membership pushes and
		// rebalance traffic the join triggers. The seed bumps the epoch and
		// gossips the new ring; adopting its response is just the fast path.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			m, err := server.NewResilientClient(*join).UpdateMembership(ctx, cluster.ActionJoin, *self)
			if err != nil {
				logger.Printf("join via %s failed (will keep serving standalone): %v", *join, err)
				return
			}
			if _, err := cl.Adopt(m); err != nil {
				logger.Printf("join: adopting membership: %v", err)
				return
			}
			logger.Printf("joined cluster via %s: epoch %d, %d peers", *join, m.Epoch, len(m.Peers))
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("%v: draining (deadline %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		logger.Printf("drained")
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "netcached:", err)
			os.Exit(1)
		}
	}
}

// runAdmin performs a one-shot membership change through any live member
// and exits: `netcached -admin http://a:8100 -decommission http://b:8100`
// starts b draining, `-remove` drops a dead peer outright.
func runAdmin(logger *log.Logger, member, decommission, remove string) {
	var action, peer string
	switch {
	case decommission != "" && remove != "":
		logger.Fatal("-admin takes exactly one of -decommission or -remove")
	case decommission != "":
		action, peer = cluster.ActionDecommission, decommission
	case remove != "":
		action, peer = cluster.ActionRemove, remove
	default:
		logger.Fatal("-admin requires -decommission or -remove")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m, err := server.NewResilientClient(member).UpdateMembership(ctx, action, peer)
	if err != nil {
		logger.Fatalf("%s %s via %s: %v", action, peer, member, err)
	}
	fmt.Printf("epoch %d (%d peers):\n", m.Epoch, len(m.Peers))
	for _, p := range m.Peers {
		fmt.Printf("  %s\n", p)
	}
	if action == cluster.ActionDecommission {
		fmt.Printf("%s is draining; stop it once GET %s/v1/cluster shows rebalance done at epoch %d\n", peer, peer, m.Epoch)
	}
}
