package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vbuscluster/internal/jobs"
)

// FailoverPriority is the admission priority given to jobs that are
// executed off their ring owner (failover attempts and local
// fallbacks): recovery traffic preempts bulk work (Spec.Priority 0)
// but stays below the interactive ceiling, so an operator can still
// outrank it explicitly.
const FailoverPriority = 7

// maxForwardAttempts bounds how many ring successors a submission tries
// before degrading to local compilation.
const maxForwardAttempts = 3

// Options shapes a federation node.
type Options struct {
	// Self is this node's address exactly as it appears in Peers.
	Self string
	// Peers is the full member list, including Self.
	Peers []string
	// GossipInterval is the heartbeat period (default 500ms).
	GossipInterval time.Duration
	// SuspectAfter / DeadAfter bound the failure detector's windows
	// (defaults 3× and 8× the gossip interval).
	SuspectAfter, DeadAfter time.Duration
	// AttemptTimeout bounds one forward attempt; Backoff and HedgeDelay
	// shape the failover schedule (see Forwarder).
	AttemptTimeout, Backoff, HedgeDelay time.Duration
	// Seed keys the deterministic forward jitter.
	Seed uint64
	// Logf receives membership transitions and fallback decisions
	// (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.GossipInterval <= 0 {
		o.GossipInterval = 500 * time.Millisecond
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 3 * o.GossipInterval
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 8 * o.GossipInterval
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Node federates a local jobs.Server with the rest of a vbserve ring:
// it routes submissions to their plan key's owner, probes peers, and
// hands the plan cache's working set to the right owners on shutdown
// and on peer revival. All other endpoints pass through to the local
// server untouched.
type Node struct {
	self string
	srv  *jobs.Server
	ring *Ring
	det  *Detector
	fwd  *Forwarder
	opts Options

	client *http.Client // heartbeats + handoff

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	forwarded        atomic.Int64
	forwardFailovers atomic.Int64
	localFallbacks   atomic.Int64
	receivedForwards atomic.Int64
	handoffPlansSent atomic.Int64
	handoffPlansRecv atomic.Int64
}

// NewNode builds (but does not start) a federation node over srv.
func NewNode(srv *jobs.Server, opts Options) (*Node, error) {
	opts = opts.withDefaults()
	if opts.Self == "" {
		return nil, fmt.Errorf("peer: Options.Self is required")
	}
	ring, err := NewRing(opts.Peers)
	if err != nil {
		return nil, err
	}
	inRing := false
	var others []string
	for _, m := range ring.Members() {
		if m == opts.Self {
			inRing = true
		} else {
			others = append(others, m)
		}
	}
	if !inRing {
		return nil, fmt.Errorf("peer: self %q is not in the peer list %v", opts.Self, ring.Members())
	}
	probeTimeout := opts.GossipInterval
	if probeTimeout > 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	n := &Node{
		self:   opts.Self,
		srv:    srv,
		ring:   ring,
		det:    NewDetector(others, opts.SuspectAfter, opts.DeadAfter),
		opts:   opts,
		client: &http.Client{Timeout: probeTimeout},
		stop:   make(chan struct{}),
	}
	n.fwd = NewForwarder(opts.AttemptTimeout, opts.Backoff, opts.HedgeDelay, opts.Seed, func(peer string, ok bool) {
		var tr *Transition
		if ok {
			tr = n.det.ObserveOK(peer)
		} else {
			tr = n.det.ObserveFail(peer)
		}
		n.reactTo(tr)
	})
	return n, nil
}

// live is the routing view: self is always live, everyone else as the
// detector says.
func (n *Node) live(member string) bool {
	return member == n.self || n.det.Alive(member)
}

// Start launches the heartbeat loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.gossipLoop()
}

// Stop halts the heartbeat loop without handing the cache off — the
// in-process stand-in for kill -9 in tests and sweeps. Idempotent.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// Shutdown is the graceful exit: the heartbeat loop stops, then the
// plan cache's working set is handed off to the live owners of each
// key so the federation keeps the warm set after this node leaves.
// Handoff is best-effort within ctx; failures are logged, not fatal.
func (n *Node) Shutdown(ctx context.Context) {
	n.Stop()
	n.handoffAll(ctx)
}

func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.probeAll()
			for _, tr := range n.det.Sweep() {
				tr := tr
				n.reactTo(&tr)
			}
		}
	}
}

// probeAll heartbeats every other member in parallel and waits for
// the round (each probe bounded by the client timeout).
func (n *Node) probeAll() {
	var wg sync.WaitGroup
	for _, m := range n.ring.Members() {
		if m == n.self {
			continue
		}
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			resp, err := n.client.Get(fmt.Sprintf("http://%s/v1/peer/health", m))
			ok := err == nil && resp.StatusCode == http.StatusOK
			if err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
				resp.Body.Close()
			}
			var tr *Transition
			if ok {
				tr = n.det.ObserveOK(m)
			} else {
				tr = n.det.ObserveFail(m)
			}
			n.reactTo(tr)
		}(m)
	}
	wg.Wait()
}

// reactTo logs a membership transition and, on a revival, hands the
// revived peer the cached plans it now owns so it rejoins warm.
func (n *Node) reactTo(tr *Transition) {
	if tr == nil {
		return
	}
	n.opts.Logf("peer: %s %s -> %s", tr.Peer, tr.From, tr.To)
	if tr.To == StatusAlive {
		n.handoffTo(context.Background(), tr.Peer)
	}
}

// ownerFor places a normalized spec's plan key under the current
// liveness view.
func (n *Node) ownerFor(spec jobs.Spec) (string, []string) {
	key := jobs.PlanKey(spec)
	targets := n.ring.Successors(key, 1+maxForwardAttempts, n.live)
	if len(targets) == 0 {
		return n.self, nil
	}
	return targets[0], targets
}

// handoffTo ships the cached specs owned by peer (under the current
// view) as VBPJ journal bytes.
func (n *Node) handoffTo(ctx context.Context, peer string) {
	var owned []jobs.Spec
	for _, sp := range n.srv.CachedSpecs() {
		if owner, ok := n.ring.Owner(jobs.PlanKey(sp), n.live); ok && owner == peer {
			owned = append(owned, sp)
		}
	}
	n.sendHandoff(ctx, peer, owned)
}

// handoffAll distributes the whole cached working set to the live
// owners of each key, excluding self — the shutdown path.
func (n *Node) handoffAll(ctx context.Context) {
	liveWithoutSelf := func(m string) bool { return m != n.self && n.det.Alive(m) }
	byOwner := map[string][]jobs.Spec{}
	for _, sp := range n.srv.CachedSpecs() {
		if owner, ok := n.ring.Owner(jobs.PlanKey(sp), liveWithoutSelf); ok {
			byOwner[owner] = append(byOwner[owner], sp)
		}
	}
	for owner, specs := range byOwner {
		n.sendHandoff(ctx, owner, specs)
	}
}

func (n *Node) sendHandoff(ctx context.Context, peer string, specs []jobs.Spec) {
	if len(specs) == 0 {
		return
	}
	body := jobs.EncodeJournal(specs)
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodPost,
		fmt.Sprintf("http://%s/v1/peer/handoff", peer), bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := n.client.Do(req)
	if err != nil {
		n.opts.Logf("peer: handoff of %d plans to %s failed: %v", len(specs), peer, err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.opts.Logf("peer: handoff of %d plans to %s refused: status %d", len(specs), peer, resp.StatusCode)
		return
	}
	n.handoffPlansSent.Add(int64(len(specs)))
	n.opts.Logf("peer: handed %d plans to %s", len(specs), peer)
}

// Handler wraps the local server's API with the federation layer:
// submissions are ring-routed, peer endpoints answer probes and
// handoffs, and readiness reports ring state. Everything else passes
// through to the jobs handler.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	mux.HandleFunc("GET /v1/peer/health", n.handlePeerHealth)
	mux.HandleFunc("POST /v1/peer/handoff", n.handleHandoff)
	mux.HandleFunc("GET /v1/peer/ring", n.handleRing)
	mux.HandleFunc("GET /healthz", n.handleReady)
	mux.HandleFunc("GET /healthz/ready", n.handleReady)
	mux.Handle("/", n.srv.Handler())
	return mux
}

// maxSubmitBytes mirrors the jobs layer's body bound; handoff bodies
// scale with the cache, so they get more headroom.
const (
	maxSubmitBytes  = 1 << 20
	maxHandoffBytes = 64 << 20
)

func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad_spec", "bad job spec: "+err.Error())
		return
	}
	spec, err := n.srv.NormalizeSpec(spec)
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}

	// Forwarded submissions execute here unconditionally: one hop at
	// most, so divergent ring views can never loop a job. Failover
	// hops run at boosted priority — recovery preempts bulk.
	if r.URL.Query().Get(forwardedParam) != "" {
		n.receivedForwards.Add(1)
		if r.URL.Query().Get(failoverParam) != "" && spec.Priority < FailoverPriority {
			spec.Priority = FailoverPriority
		}
		w.Header().Set("X-VBus-Peer", n.self)
		n.srv.SubmitHTTP(w, r, spec)
		return
	}

	owner, targets := n.ownerFor(spec)
	if owner == n.self {
		w.Header().Set("X-VBus-Peer", n.self)
		n.srv.SubmitHTTP(w, r, spec)
		return
	}

	// Remote owner: forward along the successor chain up to (never
	// including) ourselves; if we appear in the chain we are the
	// natural last resort and run the job locally instead.
	var remote []string
	for _, t := range targets {
		if t == n.self {
			break
		}
		remote = append(remote, t)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		jobs.WriteError(w, http.StatusInternalServerError, "bad_spec", err.Error())
		return
	}
	wait := r.URL.Query().Get("wait") != ""
	hedge := n.det.Status(owner) == StatusSuspect
	res, err := n.fwd.Submit(r.Context(), remote, body, wait, hedge)
	if err != nil {
		// Every live successor refused or vanished: degrade to local
		// compilation at failover priority rather than failing the job.
		// A partitioned or lone peer serves everything this way.
		n.localFallbacks.Add(1)
		n.opts.Logf("peer: forward of key owner %s failed (%v); running locally", owner, err)
		if spec.Priority < FailoverPriority {
			spec.Priority = FailoverPriority
		}
		w.Header().Set("X-VBus-Peer", n.self)
		w.Header().Set("X-VBus-Fallback", "local")
		n.srv.SubmitHTTP(w, r, spec)
		return
	}
	n.forwarded.Add(1)
	n.forwardFailovers.Add(int64(res.Failovers))
	w.Header().Set("X-VBus-Peer", res.Peer)
	if res.Type != "" {
		w.Header().Set("Content-Type", res.Type)
	}
	if res.RetryIn != "" {
		w.Header().Set("Retry-After", res.RetryIn)
	}
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}

func (n *Node) handlePeerHealth(w http.ResponseWriter, r *http.Request) {
	if n.srv.Draining() {
		// A draining peer reads as failed so the ring routes around it
		// before it disappears.
		jobs.WriteError(w, http.StatusServiceUnavailable, "draining", "peer draining")
		return
	}
	writePeerJSON(w, http.StatusOK, map[string]any{"self": n.self, "status": "ready"})
}

func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxHandoffBytes))
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad_handoff", err.Error())
		return
	}
	specs, err := jobs.DecodeJournal(b)
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad_handoff", err.Error())
		return
	}
	warmed := n.srv.WarmSpecs(specs)
	n.handoffPlansRecv.Add(int64(warmed))
	writePeerJSON(w, http.StatusOK, map[string]any{"warmed": warmed})
}

// RingView is the GET /v1/peer/ring (and /healthz/ready) body: the
// node's current view of the federation.
type RingView struct {
	Self    string               `json:"self"`
	Status  string               `json:"status"`
	Members []string             `json:"members"`
	Peers   map[string]PeerState `json:"peers"`
	// Counters for the forwarding plane.
	Forwarded        int64 `json:"forwarded"`
	ForwardFailovers int64 `json:"forward_failovers"`
	LocalFallbacks   int64 `json:"local_fallbacks"`
	ReceivedForwards int64 `json:"received_forwards"`
	HandoffPlansSent int64 `json:"handoff_plans_sent"`
	HandoffPlansRecv int64 `json:"handoff_plans_received"`
}

// View snapshots the node's federation state.
func (n *Node) View() RingView {
	status := "ready"
	if n.srv.Draining() {
		status = "draining"
	}
	return RingView{
		Self:             n.self,
		Status:           status,
		Members:          n.ring.Members(),
		Peers:            n.det.Snapshot(),
		Forwarded:        n.forwarded.Load(),
		ForwardFailovers: n.forwardFailovers.Load(),
		LocalFallbacks:   n.localFallbacks.Load(),
		ReceivedForwards: n.receivedForwards.Load(),
		HandoffPlansSent: n.handoffPlansSent.Load(),
		HandoffPlansRecv: n.handoffPlansRecv.Load(),
	}
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	writePeerJSON(w, http.StatusOK, n.View())
}

// handleReady is the peer-aware readiness probe: 503 while draining,
// otherwise 200 with the ring view, so a load balancer (and the CI
// smoke) can see membership state — a dead peer shows up as "dead" in
// every survivor's readiness body.
func (n *Node) handleReady(w http.ResponseWriter, r *http.Request) {
	if n.srv.Draining() {
		jobs.WriteError(w, http.StatusServiceUnavailable, "draining", "server draining, not admitting jobs")
		return
	}
	writePeerJSON(w, http.StatusOK, n.View())
}

func writePeerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
