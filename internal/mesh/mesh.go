// Package mesh simulates the V-Bus interconnection network: a grid of
// wormhole routers (a Geometry — mesh or torus in any number of
// dimensions; 2-D in the paper's machine) whose channels are the
// wave-pipelined links from internal/fabric, plus the paper's Virtual
// Bus — a broadcast bus that is dynamically constructed over the mesh
// when a broadcast request is issued, freezing on-going point-to-point
// messages in their buffers while the bus is driven.
//
// The simulator works at message granularity with wormhole semantics: a
// message acquires the channels along its dimension-ordered route hop
// by hop, holds every acquired channel until its tail flit drains
// (backpressure), and contends FIFO for busy channels. This is the
// standard message-level wormhole approximation; it preserves the cost
// structure the paper's evaluation depends on (head latency per hop,
// serialization at the bottleneck link rate, blocking under contention,
// and bus preemption for broadcasts).
package mesh

import (
	"errors"
	"fmt"
	"slices"

	"vbuscluster/internal/fabric"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/sim"
)

// NodeID identifies a node (PC) on the mesh, numbered row-major
// (dimension 0 is the fastest-varying coordinate).
type NodeID int

// Named configuration errors, matchable with errors.Is.
var (
	// ErrBadGeometry rejects a geometry without dimensions or with a
	// dimension below 1.
	ErrBadGeometry = errors.New("mesh: invalid geometry")
	// ErrGeometryMismatch rejects a node population that does not fit
	// the geometry.
	ErrGeometryMismatch = errors.New("mesh: geometry mismatch")
)

// Config describes the mesh geometry and its physical channels.
type Config struct {
	// Geometry is the grid of routers; messages follow its
	// dimension-ordered walk.
	Geometry Geometry

	// Channel physics (shared by every mesh channel).
	LinkMode fabric.PipelineMode
	Lines    fabric.LineSet
	Margin   sim.Time
	Sampler  fabric.SkewSampler

	// RouterLatency is the per-hop routing decision + switch traversal
	// time for the head flit.
	RouterLatency sim.Time

	// BusArbitration is the fixed cost of constructing the virtual bus
	// (grant + freeze propagation) before a broadcast may be driven.
	BusArbitration sim.Time
}

// Dir is a channel direction out of a router.
type Dir int

// Channel directions. Inject/Eject are the NIC-router channels.
// Values beyond Eject encode the dimensions beyond the first two
// (dirFor).
const (
	East Dir = iota
	West
	North
	South
	Inject
	Eject
)

func (d Dir) String() string {
	switch d {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	case Inject:
		return "inj"
	case Eject:
		return "ej"
	}
	if k := int(d) - int(Eject) - 1; k >= 0 {
		// Higher mesh dimension: D2+, D2-, D3+, ...
		sign := "+"
		if k%2 == 1 {
			sign = "-"
		}
		return fmt.Sprintf("D%d%s", 2+k/2, sign)
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// dirFor encodes a mesh dimension and direction as a channel Dir:
// dimensions 0 and 1 keep the classic compass names, higher
// dimensions extend past Eject in (positive, negative) pairs.
func dirFor(d int, fwd bool) Dir {
	switch d {
	case 0:
		if fwd {
			return East
		}
		return West
	case 1:
		if fwd {
			return South
		}
		return North
	}
	k := int(Eject) + 1 + 2*(d-2)
	if !fwd {
		k++
	}
	return Dir(k)
}

// meshDim decodes dirFor: the dimension and direction of a mesh
// channel Dir.
func meshDim(d Dir) (dim int, fwd bool) {
	switch d {
	case East:
		return 0, true
	case West:
		return 0, false
	case South:
		return 1, true
	case North:
		return 1, false
	}
	k := int(d) - int(Eject) - 1
	return 2 + k/2, k%2 == 0
}

// chanKey names one directed channel: the channel leaving node in
// direction dir on virtual channel vc. Virtual channels exist for
// torus deadlock freedom: a message that crosses a dimension's
// wrap-around link (the "dateline") continues on vc 1, which breaks
// the cyclic channel-dependency a ring would otherwise form under
// wormhole holds. Mesh routing always uses vc 0.
type chanKey struct {
	node NodeID
	dir  Dir
	vc   int
}

// channel tracks FIFO occupancy of one directed physical channel. While
// a message holds the channel (wormhole: from head acquisition until its
// tail drains), arrivals queue as waiters and are woken in FIFO order on
// release.
type channel struct {
	held    bool
	freeAt  sim.Time // earliest reacquire time once not held
	waiters []func()
}

// Stats aggregates delivery statistics.
type Stats struct {
	MessagesDelivered   int
	BroadcastsDone      int
	FlitsDelivered      int64
	TotalLatency        sim.Time
	MaxLatency          sim.Time
	BlockedAcquires     int // channel acquisitions that had to wait
	FrozenByBus         int // p2p progress events delayed by a virtual bus
	LinkStalls          int // head-flit advances stalled by an injected link outage
	Retransmissions     int // message streams repeated after injected drop/corruption
	BusOccupancy        sim.Time
	PeakInFlight        int
	currentInFlight     int
	DeliveredByDst      map[NodeID]int
	BytesPerFlit        int
	TotalBytesDelivered int64
}

// Mesh is the network simulator. All methods must be called from the
// owning goroutine (typically inside engine events).
type Mesh struct {
	eng  *sim.Engine
	cfg  Config
	link *fabric.Link // channel timing model (per hop, freshly sampled)

	channels map[chanKey]*channel
	draining map[*message]struct{}

	// busFreeAt is the time the current/last virtual bus releases the
	// network. P2p progress is frozen until then.
	busFreeAt sim.Time

	// inj injects flit-level faults (nil = clean network): link outages
	// stall head flits, drop/corruption forces full message re-streams.
	inj *fault.Injector
	// meshSeq numbers each (src,dst) pair's messages so fault decisions
	// are deterministic and independent of event interleaving.
	meshSeq map[[2]NodeID]int

	stats Stats
}

// New validates cfg and builds the mesh. A geometry without
// dimensions or with one below 1 fails with the named ErrBadGeometry,
// so callers fed from external configuration can classify the
// rejection instead of discovering it as an index panic deep inside
// Route.
func New(eng *sim.Engine, cfg Config) (*Mesh, error) {
	if err := cfg.Geometry.Check(1); err != nil {
		return nil, err
	}
	if cfg.RouterLatency < 0 || cfg.BusArbitration < 0 {
		return nil, fmt.Errorf("mesh: negative latency config")
	}
	cfg.Geometry.Dims = slices.Clone(cfg.Geometry.Dims)
	l, err := fabric.NewLink(fabric.LinkConfig{
		Mode:    cfg.LinkMode,
		Lines:   cfg.Lines,
		Margin:  cfg.Margin,
		Sampler: cfg.Sampler,
	})
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	m := &Mesh{
		eng:      eng,
		cfg:      cfg,
		link:     l,
		channels: make(map[chanKey]*channel),
		draining: make(map[*message]struct{}),
		meshSeq:  make(map[[2]NodeID]int),
	}
	m.stats.DeliveredByDst = make(map[NodeID]int)
	m.stats.BytesPerFlit = l.Width() / 8
	return m, nil
}

// Nodes reports the node count.
func (m *Mesh) Nodes() int { return m.cfg.Geometry.Nodes() }

// BytesPerFlit reports the payload bytes carried per flit (= link width).
func (m *Mesh) BytesPerFlit() int { return m.stats.BytesPerFlit }

// Stats returns a snapshot of delivery statistics.
func (m *Mesh) Stats() Stats { return m.stats }

// SetFaults attaches a fault injector to the network. Pass nil to
// restore clean operation. Must be called before traffic is injected.
func (m *Mesh) SetFaults(inj *fault.Injector) { m.inj = inj }

// Coord maps a NodeID to its first two mesh coordinates (the classic
// 2-D view).
func (m *Mesh) Coord(n NodeID) (x, y int) {
	return int(n) % m.cfg.Geometry.Dims[0], int(n) / m.cfg.Geometry.Dims[0]
}

// NodeAt maps 2-D coordinates to a NodeID.
func (m *Mesh) NodeAt(x, y int) NodeID { return NodeID(y*m.cfg.Geometry.Dims[0] + x) }

// valid reports whether n is a node of this mesh.
func (m *Mesh) valid(n NodeID) bool { return n >= 0 && int(n) < m.Nodes() }

// Route lists the channels of the geometry's dimension-ordered walk
// from src to dst, between the injection and ejection channels.
// Dimension ordering makes the wormhole hold graph acyclic in any
// number of dimensions; on a torus each dimension additionally
// switches to virtual channel 1 after crossing that dimension's
// wrap-around link (its dateline), breaking the per-ring cyclic
// dependency. Nodes outside the mesh yield an error rather than a
// panic, so callers fed from external configuration can report the
// problem.
func (m *Mesh) Route(src, dst NodeID) ([]chanKey, error) {
	if !m.valid(src) || !m.valid(dst) {
		return nil, fmt.Errorf("mesh: route %d->%d outside %s mesh", src, dst, m.cfg.Geometry)
	}
	route := []chanKey{{src, Inject, 0}}
	m.cfg.Geometry.walk(int(src), int(dst), func(from, _, d int, fwd, wrapped bool) {
		vc := 0
		if wrapped {
			vc = 1
		}
		route = append(route, chanKey{NodeID(from), dirFor(d, fwd), vc})
	})
	return append(route, chanKey{dst, Eject, 0}), nil
}

// Hops reports the hop count (mesh channels, excluding inject/eject)
// between two nodes.
func (m *Mesh) Hops(src, dst NodeID) int { return m.cfg.Geometry.Hops(int(src), int(dst)) }

// Diameter is the longest shortest-path hop count on the network.
func (m *Mesh) Diameter() int { return m.cfg.Geometry.Diameter() }

func (m *Mesh) channelFor(k chanKey) *channel {
	c, ok := m.channels[k]
	if !ok {
		c = &channel{}
		m.channels[k] = c
	}
	return c
}

// message is an in-flight wormhole message.
type message struct {
	src, dst NodeID
	flits    int
	seq      int // per-(src,dst) order for fault decisions
	route    []chanKey
	hop      int
	injected sim.Time
	done     func(deliveredAt sim.Time)
	held     []*channel
	release  sim.Time
	relEv    *sim.Event
}

// FlitsFor converts a payload byte count to a flit count (at least one
// flit: the head flit carries routing info even for empty payloads).
func (m *Mesh) FlitsFor(bytes int) int {
	if bytes < 0 {
		panic("mesh: negative payload")
	}
	bpf := m.stats.BytesPerFlit
	f := (bytes + bpf - 1) / bpf
	if f == 0 {
		f = 1
	}
	return f
}

// Send injects a point-to-point message at the current engine time.
// done (optional) is called when the tail flit is ejected at dst.
// Invalid endpoints or a negative payload yield an error and inject
// nothing.
func (m *Mesh) Send(src, dst NodeID, bytes int, done func(sim.Time)) error {
	if bytes < 0 {
		return fmt.Errorf("mesh: send %d->%d with negative payload %d", src, dst, bytes)
	}
	route, err := m.Route(src, dst)
	if err != nil {
		return err
	}
	msg := &message{
		src:      src,
		dst:      dst,
		flits:    m.FlitsFor(bytes),
		route:    route,
		injected: m.eng.Now(),
		done:     done,
	}
	if m.inj != nil {
		key := [2]NodeID{src, dst}
		msg.seq = m.meshSeq[key]
		m.meshSeq[key]++
	}
	m.stats.currentInFlight++
	if m.stats.currentInFlight > m.stats.PeakInFlight {
		m.stats.PeakInFlight = m.stats.currentInFlight
	}
	m.advance(msg)
	return nil
}

// advance tries to move msg's head flit across its next channel.
func (m *Mesh) advance(msg *message) {
	now := m.eng.Now()
	// The virtual bus freezes p2p progress: "other on-going
	// point-to-point messages are frozen in buffers."
	if now < m.busFreeAt {
		m.stats.FrozenByBus++
		m.eng.At(m.busFreeAt, func() { m.advance(msg) })
		return
	}
	if msg.hop >= len(msg.route) {
		m.deliver(msg)
		return
	}
	// An injected link outage stalls the head flit in its buffer until
	// the link recovers (inject/eject channels are node-local and never
	// go down).
	if m.inj != nil && m.inj.HasLinkDowns() {
		if a, b, ok := m.linkEnds(msg.route[msg.hop]); ok {
			if until := m.inj.LinkDownUntil(int(a), int(b), now); until > now {
				m.stats.LinkStalls++
				m.eng.At(until, func() { m.advance(msg) })
				return
			}
		}
	}
	ch := m.channelFor(msg.route[msg.hop])
	if ch.held {
		m.stats.BlockedAcquires++
		ch.waiters = append(ch.waiters, func() { m.advance(msg) })
		return
	}
	if ch.freeAt > now {
		m.stats.BlockedAcquires++
		m.eng.At(ch.freeAt, func() { m.advance(msg) })
		return
	}
	// Acquire: the channel is held until the tail drains (settled on
	// delivery). Dimension order (plus the torus datelines) makes the
	// hold graph acyclic, so this cannot deadlock.
	ch.held = true
	msg.held = append(msg.held, ch)
	msg.hop++
	// Head flit crosses: router decision + wire propagation.
	m.eng.After(m.cfg.RouterLatency+m.link.PropagationDelay(), func() { m.advance(msg) })
}

// deliver fires when the head flit ejects at dst; the tail drains after
// (flits-1) launch intervals, which is when channels release and the
// completion callback runs. Under fault injection, a dropped or
// CRC-corrupted stream is re-driven over the already-held wormhole
// path (one extra full stream per failed attempt, bounded by the
// injector's retry limit), so delivery is guaranteed but slower.
func (m *Mesh) deliver(msg *message) {
	drain := sim.Time(msg.flits-1) * m.link.LaunchInterval()
	if m.inj != nil {
		resend := sim.Time(msg.flits)*m.link.LaunchInterval() + m.link.PropagationDelay()
		for attempt := 0; attempt <= m.inj.MaxRetry(); attempt++ {
			if m.inj.MeshFate(int(msg.src), int(msg.dst), msg.seq, attempt) == fault.Delivered {
				break
			}
			m.stats.Retransmissions++
			drain += resend
		}
	}
	m.scheduleRelease(msg, m.eng.Now()+drain)
}

// linkEnds reports the two nodes an inter-router channel connects
// (ok=false for the node-local inject/eject channels).
func (m *Mesh) linkEnds(k chanKey) (a, b NodeID, ok bool) {
	if k.dir == Inject || k.dir == Eject {
		return 0, 0, false
	}
	d, fwd := meshDim(k.dir)
	return k.node, NodeID(m.cfg.Geometry.step(int(k.node), d, fwd)), true
}

// scheduleRelease arms (or re-arms, after a bus freeze) the event that
// releases msg's channels and completes delivery.
func (m *Mesh) scheduleRelease(msg *message, release sim.Time) {
	msg.release = release
	m.draining[msg] = struct{}{}
	msg.relEv = m.eng.At(release, func() {
		delete(m.draining, msg)
		for _, ch := range msg.held {
			ch.held = false
			ch.freeAt = release
			waiters := ch.waiters
			ch.waiters = nil
			for _, w := range waiters {
				w()
			}
		}
		m.stats.currentInFlight--
		m.stats.MessagesDelivered++
		m.stats.FlitsDelivered += int64(msg.flits)
		m.stats.TotalBytesDelivered += int64(msg.flits) * int64(m.stats.BytesPerFlit)
		m.stats.DeliveredByDst[msg.dst]++
		lat := release - msg.injected
		m.stats.TotalLatency += lat
		if lat > m.stats.MaxLatency {
			m.stats.MaxLatency = lat
		}
		if msg.done != nil {
			msg.done(release)
		}
	})
}

// Broadcast issues a V-Bus broadcast from src at the current engine
// time. The network constructs a virtual bus (arbitration + freeze),
// drives the message once — source and destinations are "connected
// directly through the virtual bus connection without intervening
// buffers" — and every other node receives it simultaneously. done
// (optional) is called once at completion with the delivery time.
// An invalid source or negative payload yields an error and drives
// nothing.
func (m *Mesh) Broadcast(src NodeID, bytes int, done func(sim.Time)) error {
	if !m.valid(src) {
		return fmt.Errorf("mesh: broadcast from invalid node %d on %s mesh", src, m.cfg.Geometry)
	}
	if bytes < 0 {
		return fmt.Errorf("mesh: broadcast from %d with negative payload %d", src, bytes)
	}
	flits := m.FlitsFor(bytes)
	now := m.eng.Now()
	start := now
	if m.busFreeAt > start {
		start = m.busFreeAt // back-to-back broadcasts serialize on the bus
	}
	// The virtual bus is constructed from the mesh's physical links, so
	// an injected outage anywhere blocks bus construction until the
	// link recovers — a broadcast cannot be driven over a dead wire.
	if m.inj != nil && m.inj.HasLinkDowns() {
		for {
			until := m.inj.AnyLinkDownUntil(start)
			if until <= start {
				break
			}
			m.stats.LinkStalls++
			start = until
		}
	}
	// Bus setup: arbitration plus driving the bus lines across the
	// diameter of the mesh (no per-hop router latency: no buffering).
	setup := m.cfg.BusArbitration + sim.Time(m.Diameter())*m.link.PropagationDelay()
	// Stream all flits once over the bus.
	stream := sim.Time(flits-1)*m.link.LaunchInterval() + m.link.PropagationDelay()
	end := start + setup + stream
	m.stats.BusOccupancy += end - now
	m.busFreeAt = end
	// Freeze p2p messages that are mid-drain: their tails stop moving
	// for the bus window and resume afterwards.
	busDur := end - start
	for msg := range m.draining {
		if msg.release > start {
			msg.relEv.Cancel()
			m.stats.FrozenByBus++
			m.scheduleRelease(msg, msg.release+busDur)
		}
	}
	m.eng.At(end, func() {
		m.stats.BroadcastsDone++
		m.stats.FlitsDelivered += int64(flits) * int64(m.Nodes()-1)
		if done != nil {
			done(end)
		}
	})
	return nil
}

// P2PTime analytically reports the uncontended point-to-point time for
// a payload between two nodes (used to calibrate the cluster model).
func (m *Mesh) P2PTime(src, dst NodeID, bytes int) sim.Time {
	hops := m.Hops(src, dst) + 2 // + inject/eject
	head := sim.Time(hops) * (m.cfg.RouterLatency + m.link.PropagationDelay())
	return head + sim.Time(m.FlitsFor(bytes)-1)*m.link.LaunchInterval()
}

// BroadcastTime analytically reports the uncontended V-Bus broadcast
// time for a payload.
func (m *Mesh) BroadcastTime(bytes int) sim.Time {
	setup := m.cfg.BusArbitration + sim.Time(m.Diameter())*m.link.PropagationDelay()
	stream := sim.Time(m.FlitsFor(bytes)-1)*m.link.LaunchInterval() + m.link.PropagationDelay()
	return setup + stream
}
