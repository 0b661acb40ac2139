// Command vbserve runs the simulated V-Bus PC-cluster as a long-lived
// compile-and-run service. Clients POST Fortran 77 jobs as JSON; the
// daemon compiles each distinct (program, options) pair once, caches
// the compiled plan in an LRU, and executes jobs over a fixed pool of
// simulated clusters with per-tenant weighted fair scheduling and
// explicit load shedding.
//
// Usage:
//
//	vbserve [-addr :8077] [-clusters N] [-queue D] [-cache P] [-fabric vbus|vbus3d|ethernet|ideal]
//	        [-cache-journal F] [-default-deadline D] [-max-deadline D] [-retries N] [-rate R] [-burst B]
//	        [-peers a:p,b:p,c:p -self a:p] [-gossip-interval D]
//
// Endpoints:
//
//	POST   /v1/jobs            submit a job (?wait=1 blocks until done)
//	GET    /v1/jobs/{id}       job record
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}/trace Chrome trace-event JSON (jobs with "trace": true)
//	GET    /metrics            throughput, cache hit rate, queue depth, latency quantiles
//	GET    /healthz/live       200 while the process serves at all
//	GET    /healthz/ready      200 serving / 503 draining (alias: /healthz)
//
// A saturated queue or an exhausted per-tenant token bucket answers
// 429 with a load-aware Retry-After estimate. SIGTERM or SIGINT starts
// a graceful drain: admission stops, every admitted job finishes, the
// plan cache is journaled to -cache-journal (if set), then the process
// exits 0. On the next boot the journal is replayed — each cached plan
// recompiled — so a restarted daemon starts warm.
//
// With -peers (a comma-separated member list including -self) the
// daemon joins a vbserve federation: plan keys live on a consistent-
// hash ring, submissions are forwarded to their key's owner (so each
// program compiles once cluster-wide), a heartbeat failure detector
// routes around dead peers with bounded failover, and a graceful exit
// hands the plan cache's working set to each key's new owner. Peer
// endpoints: GET /v1/peer/health, GET /v1/peer/ring, POST
// /v1/peer/handoff. A lone or partitioned peer degrades to local
// compilation — never an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vbuscluster/internal/cliutil"
	"vbuscluster/internal/jobs"
	_ "vbuscluster/internal/nic" // register the vbus and ethernet backends
	"vbuscluster/internal/peer"
)

func main() {
	addr := flag.String("addr", ":8077", "HTTP listen address")
	clusters := flag.Int("clusters", 2, "concurrent simulated clusters (job workers)")
	queueDepth := flag.Int("queue", 64, "admission queue depth; beyond it submissions shed with 429")
	cacheEntries := flag.Int("cache", 32, "compiled-plan LRU capacity")
	fabric := flag.String("fabric", "", cliutil.FabricFlagUsage("default interconnect backend for jobs that omit one: "))
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "maximum time to wait for in-flight jobs on shutdown")
	journal := flag.String("cache-journal", "", "plan-cache journal file: replayed on boot, written on drain (empty = no persistence)")
	defaultDeadline := flag.Duration("default-deadline", 0, "deadline for jobs that omit deadline_ms (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on any job deadline, including requested ones (0 = no cap)")
	retries := flag.Int("retries", 2, "retry budget for transiently failed jobs")
	rate := flag.Float64("rate", 0, "per-tenant admission rate limit in jobs/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "token-bucket burst per tenant (0 = 2x rate)")
	peers := flag.String("peers", "", "comma-separated federation member list (host:port, including -self); empty = standalone")
	self := flag.String("self", "", "this node's address in -peers (required with -peers)")
	gossip := flag.Duration("gossip-interval", 500*time.Millisecond, "peer heartbeat period (suspect after 3x, dead after 8x)")
	flag.Parse()

	check(cliutil.ValidateFabric(*fabric))
	if *clusters < 1 {
		check(fmt.Errorf("-clusters must be at least 1"))
	}
	if *queueDepth < 1 {
		check(fmt.Errorf("-queue must be at least 1"))
	}

	srv := jobs.New(jobs.Config{
		Clusters:        *clusters,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheEntries,
		DefaultFabric:   *fabric,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		MaxRetries:      *retries,
		RatePerSec:      *rate,
		RateBurst:       *burst,
	})
	if *journal != "" {
		warmed, err := srv.WarmCache(*journal)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vbserve: cache journal ignored: %v\n", err)
		} else if warmed > 0 {
			fmt.Fprintf(os.Stderr, "vbserve: warmed %d plans from %s\n", warmed, *journal)
		}
	}
	handler := srv.Handler()
	var node *peer.Node
	if *peers != "" {
		if *self == "" {
			check(fmt.Errorf("-self is required with -peers"))
		}
		var members []string
		for _, m := range strings.Split(*peers, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		var err error
		node, err = peer.NewNode(srv, peer.Options{
			Self:           *self,
			Peers:          members,
			GossipInterval: *gossip,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "vbserve: "+format+"\n", args...)
			},
		})
		check(err)
		handler = node.Handler()
		node.Start()
		fmt.Fprintf(os.Stderr, "vbserve: federation of %d peers, self %s, gossip every %v\n",
			len(members), *self, *gossip)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "vbserve: listening on %s (%d clusters, queue %d, cache %d plans)\n",
			*addr, *clusters, *queueDepth, *cacheEntries)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		check(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "vbserve: %v: draining (admission stopped, finishing in-flight jobs)\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "vbserve: %v\n", err)
		os.Exit(1)
	}
	if node != nil {
		// Peers saw the drain through /v1/peer/health 503s and have
		// already rerouted; now hand the warm plan cache to each key's
		// new owner so the federation keeps its hit rate.
		node.Shutdown(ctx)
	}
	if *journal != "" {
		if err := srv.SaveCache(*journal); err != nil {
			fmt.Fprintf(os.Stderr, "vbserve: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "vbserve: journaled %d plans to %s\n", srv.Metrics().Cache.Entries, *journal)
		}
	}
	// Jobs are done; now close the listener so late pollers get their
	// final snapshots instead of connection-refused mid-drain.
	check(httpSrv.Shutdown(ctx))
	m := srv.Metrics()
	fmt.Fprintf(os.Stderr, "vbserve: drained clean: %d completed, %d failed, %d shed, cache hit rate %.2f\n",
		m.Completed, m.Failed, m.Shed, m.Cache.HitRate)
}

func check(err error) { cliutil.Check("vbserve", err) }
