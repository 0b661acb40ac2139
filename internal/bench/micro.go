package bench

import (
	"fmt"

	"vbuscluster/internal/fabric"
	"vbuscluster/internal/mesh"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/sim"
)

// MicroResults reproduces the §2 card claims with the fabric and mesh
// simulators.
type MicroResults struct {
	// SKWPBandwidth sweeps message sizes and reports SKWP vs
	// conventional pipelining effective bandwidth (bytes/s) over a
	// 3-hop path — §2.1: "SKWP increases the bandwidth up to four
	// times higher than conventional pipelining."
	SKWPBandwidth []BandwidthPoint
	// WaveDegradation shows plain wave pipelining losing throughput
	// with hop count while SKWP stays flat (the skew-sampling claim).
	WaveDegradation []DegradationPoint
	// LatencyVBus / LatencyEthernet are one-way small-message
	// latencies — §2.1: "about four times lower latency than the Fast
	// Ethernet card."
	LatencyVBus     sim.Time
	LatencyEthernet sim.Time
	// Broadcast compares the V-Bus hardware broadcast against a
	// software binomial tree of point-to-point messages on the same
	// mesh, by payload size.
	Broadcast []BroadcastPoint
}

// BandwidthPoint is one message size's bandwidth under two disciplines.
type BandwidthPoint struct {
	Bytes        int
	Conventional float64
	Wave         float64
	SKWP         float64
}

// DegradationPoint is one hop count's bottleneck launch interval.
type DegradationPoint struct {
	Hops int
	Wave sim.Time
	SKWP sim.Time
}

// BroadcastPoint is one payload's broadcast completion time under the
// virtual bus vs a software tree.
type BroadcastPoint struct {
	Bytes    int
	VBus     sim.Time
	TreeP2P  sim.Time
	Ethernet sim.Time
}

// RunMicro executes all §2 microbenchmarks.
func RunMicro() (*MicroResults, error) {
	out := &MicroResults{}
	cfg := nic.DefaultVBusConfig()

	mkPath := func(mode fabric.PipelineMode, hops int) (*fabric.Path, error) {
		return fabric.NewPath(fabric.PathConfig{
			Mode:          mode,
			Lines:         cfg.Lines,
			Margin:        cfg.Margin,
			Sampler:       cfg.Sampler,
			Hops:          hops,
			RouterLatency: cfg.RouterLatency,
		})
	}

	for _, bytes := range []int{64, 1 << 10, 1 << 14, 1 << 18, 1 << 22} {
		words := bytes / (cfg.Lines.Width() / 8)
		pt := BandwidthPoint{Bytes: bytes}
		for _, m := range []fabric.PipelineMode{fabric.Conventional, fabric.Wave, fabric.SKWP} {
			p, err := mkPath(m, 3)
			if err != nil {
				return nil, err
			}
			bw := p.EffectiveBandwidth(words)
			switch m {
			case fabric.Conventional:
				pt.Conventional = bw
			case fabric.Wave:
				pt.Wave = bw
			case fabric.SKWP:
				pt.SKWP = bw
			}
		}
		out.SKWPBandwidth = append(out.SKWPBandwidth, pt)
	}

	for hops := 1; hops <= 8; hops++ {
		wave, err := mkPath(fabric.Wave, hops)
		if err != nil {
			return nil, err
		}
		skwp, err := mkPath(fabric.SKWP, hops)
		if err != nil {
			return nil, err
		}
		out.WaveDegradation = append(out.WaveDegradation, DegradationPoint{
			Hops: hops,
			Wave: wave.BottleneckInterval(),
			SKWP: skwp.BottleneckInterval(),
		})
	}

	vbus, err := nic.NewVBus(cfg)
	if err != nil {
		return nil, err
	}
	eth, err := nic.NewEthernet(nic.DefaultEthernetConfig())
	if err != nil {
		return nil, err
	}
	out.LatencyVBus = vbus.SmallMessageLatency()
	out.LatencyEthernet = eth.SmallMessageLatency()

	for _, bytes := range []int{64, 1 << 12, 1 << 16, 1 << 20} {
		// V-Bus hardware broadcast on a 4x4 mesh (flit-level sim).
		eng := sim.NewEngine()
		m, err := mesh.New(eng, vbus.MeshConfig(4, 4))
		if err != nil {
			return nil, err
		}
		var busDone sim.Time
		m.Broadcast(0, bytes, func(t sim.Time) { busDone = t })
		eng.Run()

		// Software binomial tree on the same mesh.
		eng2 := sim.NewEngine()
		m2, err := mesh.New(eng2, vbus.MeshConfig(4, 4))
		if err != nil {
			return nil, err
		}
		treeDone := runTreeBroadcast(eng2, m2, bytes)

		out.Broadcast = append(out.Broadcast, BroadcastPoint{
			Bytes:    bytes,
			VBus:     busDone,
			TreeP2P:  treeDone,
			Ethernet: eth.BroadcastTime(bytes, 16),
		})
	}
	return out, nil
}

// runTreeBroadcast drives a binomial software broadcast through the
// flit-level mesh and returns the completion time.
func runTreeBroadcast(eng *sim.Engine, m *mesh.Mesh, bytes int) sim.Time {
	var done sim.Time
	holders := []mesh.NodeID{0}
	next := 1
	var stage func()
	stage = func() {
		if next >= m.Nodes() {
			done = eng.Now()
			return
		}
		pending := 0
		var added []mesh.NodeID
		for _, h := range holders {
			if next >= m.Nodes() {
				break
			}
			dst := mesh.NodeID(next)
			next++
			pending++
			added = append(added, dst)
			m.Send(h, dst, bytes, func(sim.Time) {
				pending--
				if pending == 0 {
					stage()
				}
			})
		}
		holders = append(holders, added...)
	}
	stage()
	eng.Run()
	return done
}

// runMicroSweep renders the microbenchmark report.
func runMicroSweep(Env) (Report, error) {
	r, err := RunMicro()
	if err != nil {
		return Report{}, err
	}
	bw := Table{
		Title:     "SKWP bandwidth vs conventional pipelining (3-hop path)",
		Header:    "bytes\tconventional\twave\tskwp\tskwp/conv",
		RowFormat: "%d\t%.1f MB/s\t%.1f MB/s\t%.1f MB/s\t%.2fx\n",
	}
	for _, p := range r.SKWPBandwidth {
		bw.Add(p.Bytes, p.Conventional/1e6, p.Wave/1e6, p.SKWP/1e6, p.SKWP/p.Conventional)
	}
	skew := Table{Title: "Wave-pipelining skew accumulation (bottleneck launch interval)", Header: "hops\twave\tskwp", RowFormat: "%d\t%v\t%v\n"}
	for _, p := range r.WaveDegradation {
		skew.Add(p.Hops, p.Wave, p.SKWP)
	}
	latency := Table{Title: fmt.Sprintf("Small-message one-way latency: V-Bus %v vs Fast Ethernet %v (%.1fx)",
		r.LatencyVBus, r.LatencyEthernet, float64(r.LatencyEthernet)/float64(r.LatencyVBus))}
	bcast := Table{Title: "Broadcast on a 4x4 mesh: virtual bus vs software tree", Header: "bytes\tv-bus\tp2p tree\tethernet tree", RowFormat: "%d\t%v\t%v\t%v\n"}
	for _, p := range r.Broadcast {
		bcast.Add(p.Bytes, p.VBus, p.TreeP2P, p.Ethernet)
	}
	return Report{Tables: []Table{bw, skew, latency, bcast}}, nil
}
