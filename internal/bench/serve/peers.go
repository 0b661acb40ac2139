package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/jobs"
	"vbuscluster/internal/peer"
)

// PeerResult is the record of one federation sweep: a three-peer
// vbserve ring driven over real loopback sockets, one peer hard-killed
// mid-run, with the robustness claims asserted rather than eyeballed —
// ≥99% of submissions complete across the kill, and once the ring has
// rebalanced the warm hit rate recovers to ≥0.8. Like the chaos sweep,
// a violated claim is an error, so `vbbench -sweep peers` doubles as a
// CI gate.
type PeerResult struct {
	Seed    uint64  `json:"seed"`
	Nodes   int     `json:"nodes"`
	Killed  string  `json:"killed"`
	WallSec float64 `json:"wall_seconds"`

	Submitted      int     `json:"jobs_submitted"`
	Completed      int     `json:"jobs_completed"`
	CompletionRate float64 `json:"completion_rate"`

	// Forwarding-plane counters summed over the survivors.
	Forwarded        int64 `json:"forwarded"`
	Failovers        int64 `json:"forward_failovers"`
	LocalFallbacks   int64 `json:"local_fallbacks"`
	ReceivedForwards int64 `json:"received_forwards"`

	// DetectMs is how long the survivors took to declare the killed
	// peer dead after the kill.
	DetectMs float64 `json:"detect_ms"`
	// PostKillHitRate is the plan-cache hit rate of the post-rebalance
	// phase: rerouted keys cold-compile once at their new owner, then
	// every later submission hits.
	PostKillHitRate float64 `json:"post_kill_hit_rate"`

	GoroutinesBefore int `json:"goroutines_before"`
	GoroutinesAfter  int `json:"goroutines_after"`
}

// peerNode is one in-process federation member behind a real TCP
// listener — forwarding, heartbeats and handoff all cross loopback.
type peerNode struct {
	addr string
	srv  *jobs.Server
	node *peer.Node
	hs   *http.Server
}

func (pn *peerNode) kill() {
	pn.hs.Close()
	pn.node.Stop()
	pn.srv.Drain(context.Background())
}

func (pn *peerNode) shutdown() {
	pn.node.Shutdown(context.Background())
	pn.hs.Close()
	pn.srv.Drain(context.Background())
}

// peerSubmit posts one spec through an entry node with ?wait=1 and
// reports whether it completed and whether the plan came from a warm
// cache.
func peerSubmit(addr string, sp jobs.Spec) (done, hit bool, err error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return false, false, err
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/jobs?wait=1", addr),
		"application/json", strings.NewReader(string(body)))
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return false, false, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var v jobs.View
	if err := json.Unmarshal(data, &v); err != nil {
		return false, false, err
	}
	return v.State == jobs.StateDone, v.CacheHit, nil
}

// PeerSweep runs the three-peer federation scenario end to end:
// phase A floods the ring through every entry node (each program
// compiles exactly once, at its key's owner); one peer is then
// hard-killed and a failover phase submits through the survivors while
// the detector is still converging (hedged forwarding or local
// fallback must complete every job); once both survivors declare the
// victim dead, the rebalance phase asserts the warm hit rate
// recovered. The seed parameterizes forwarder jitter. Listener ports
// are kernel-assigned, so ring placement (and thus which node dies)
// varies run to run — the claims hold for any placement.
func PeerSweep(seed uint64) (*PeerResult, error) {
	res := &PeerResult{Seed: seed, Nodes: 3}
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	res.GoroutinesBefore = runtime.NumGoroutine()
	start := time.Now()

	// Bind first so every node knows the full member list.
	lns := make([]net.Listener, res.Nodes)
	addrs := make([]string, res.Nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*peerNode, res.Nodes)
	for i := range lns {
		srv := jobs.New(jobs.Config{Clusters: 2, QueueDepth: 32})
		nd, err := peer.NewNode(srv, peer.Options{
			Self:           addrs[i],
			Peers:          addrs,
			GossipInterval: 50 * time.Millisecond,
			SuspectAfter:   150 * time.Millisecond,
			DeadAfter:      400 * time.Millisecond,
			AttemptTimeout: 10 * time.Second,
			Backoff:        5 * time.Millisecond,
			HedgeDelay:     50 * time.Millisecond,
			Seed:           seed + uint64(i),
		})
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: nd.Handler()}
		go hs.Serve(lns[i])
		nd.Start()
		nodes[i] = &peerNode{addr: addrs[i], srv: srv, node: nd, hs: hs}
	}

	mix := []jobs.Spec{
		{Source: bench.MMSource(16), Procs: 4, Tenant: "sweep"},
		{Source: bench.MMSource(20), Procs: 4, Tenant: "sweep"},
		{Source: bench.MMSource(24), Procs: 4, Tenant: "sweep"},
		{Source: bench.SwimSource(32, 32), Procs: 4, Tenant: "sweep"},
		{Source: bench.CFFTSource(7), Procs: 4, Tenant: "sweep"},
		{Source: bench.CFFTSource(8), Procs: 4, Tenant: "sweep"},
	}

	// Phase A: every program through every entry door, twice. After the
	// first round each program's plan is warm at its owner, whichever
	// door the job came in through.
	for round := 0; round < 2; round++ {
		for i, sp := range mix {
			res.Submitted++
			done, _, err := peerSubmit(nodes[(round+i)%len(nodes)].addr, sp)
			if err != nil {
				return nil, fmt.Errorf("peers: phase A job: %w", err)
			}
			if done {
				res.Completed++
			}
		}
	}

	// Hard-kill one peer — no drain, no handoff, the listener just
	// vanishes mid-run.
	victim := nodes[int(seed)%len(nodes)]
	var survivors []*peerNode
	for _, pn := range nodes {
		if pn != victim {
			survivors = append(survivors, pn)
		}
	}
	res.Killed = victim.addr
	victim.kill()
	killAt := time.Now()

	// Failover phase: submissions land while the survivors may still
	// believe the victim owns its keys. Forwarding must fail over to
	// the ring successor (or degrade to local compilation) — every job
	// still completes.
	for i, sp := range mix {
		res.Submitted++
		done, _, err := peerSubmit(survivors[i%len(survivors)].addr, sp)
		if err != nil {
			return nil, fmt.Errorf("peers: failover-phase job: %w", err)
		}
		if done {
			res.Completed++
		}
	}

	// Wait for both survivors to declare the victim dead (bounded).
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range survivors {
		for {
			if st, ok := s.node.View().Peers[victim.addr]; ok && st.Status == peer.StatusDead {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("peers: survivor %s never declared %s dead", s.addr, victim.addr)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	res.DetectMs = float64(time.Since(killAt)) / float64(time.Millisecond)

	// Rebalance phase: routing is stable again. Rerouted keys cold-
	// compile at most once at their new owner; everything else hits.
	hits, rebal := 0, 0
	for round := 0; round < 3; round++ {
		for i, sp := range mix {
			res.Submitted++
			rebal++
			done, hit, err := peerSubmit(survivors[(round+i)%len(survivors)].addr, sp)
			if err != nil {
				return nil, fmt.Errorf("peers: rebalance-phase job: %w", err)
			}
			if done {
				res.Completed++
			}
			if hit {
				hits++
			}
		}
	}
	res.PostKillHitRate = float64(hits) / float64(rebal)

	// Graceful exit for the survivors, then the leak census.
	for _, s := range survivors {
		s.shutdown()
	}
	for _, pn := range nodes {
		res.Forwarded += pn.node.View().Forwarded
		res.Failovers += pn.node.View().ForwardFailovers
		res.LocalFallbacks += pn.node.View().LocalFallbacks
		res.ReceivedForwards += pn.node.View().ReceivedForwards
	}
	res.WallSec = time.Since(start).Seconds()

	res.CompletionRate = float64(res.Completed) / float64(res.Submitted)
	if res.CompletionRate < 0.99 {
		return nil, fmt.Errorf("peers: completion rate %.3f (%d/%d), want >= 0.99",
			res.CompletionRate, res.Completed, res.Submitted)
	}
	if res.PostKillHitRate < 0.8 {
		return nil, fmt.Errorf("peers: post-rebalance hit rate %.3f, want >= 0.8 (%d/%d hits)",
			res.PostKillHitRate, hits, rebal)
	}
	censusDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		res.GoroutinesAfter = runtime.NumGoroutine()
		if res.GoroutinesAfter <= res.GoroutinesBefore+8 {
			break
		}
		if time.Now().After(censusDeadline) {
			return nil, fmt.Errorf("peers: goroutines %d -> %d after shutdown (allowed +8)",
				res.GoroutinesBefore, res.GoroutinesAfter)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return res, nil
}

// runPeers renders the sweep result as a readable block.
func runPeers(env bench.Env) (bench.Report, error) {
	r, err := PeerSweep(env.SeedOr(42))
	if err != nil {
		return bench.Report{}, err
	}
	t := bench.Table{
		Title:     fmt.Sprintf("peer sweep (seed %d, %d nodes, killed %s)", r.Seed, r.Nodes, r.Killed),
		RowFormat: "  %-11s %s\n",
	}
	t.Add("jobs", fmt.Sprintf("%d submitted, %d completed (%.1f%%)", r.Submitted, r.Completed, 100*r.CompletionRate))
	t.Add("forwarding", fmt.Sprintf("%d forwarded, %d failovers, %d local fallbacks, %d received",
		r.Forwarded, r.Failovers, r.LocalFallbacks, r.ReceivedForwards))
	t.Add("detection", fmt.Sprintf("victim dead after %.0fms", r.DetectMs))
	t.Add("cache", fmt.Sprintf("post-rebalance hit rate %.2f", r.PostKillHitRate))
	t.Add("goroutines", fmt.Sprintf("%d -> %d", r.GoroutinesBefore, r.GoroutinesAfter))
	t.Add("wall", fmt.Sprintf("%.2fs", r.WallSec))
	return bench.Report{
		Tables:  []bench.Table{t},
		Section: &bench.Section{File: serveFile, Schema: serveSchema, Key: "peers", Value: r},
	}, nil
}
