package fabric

import (
	"fmt"

	"vbuscluster/internal/sim"
)

// Path models a multi-hop route built from identical physical links.
// It is used by the card-level microbenchmarks (§2 of the paper) and to
// calibrate the cluster cost model: the mesh simulator in internal/mesh
// handles contention, while Path gives the uncontended pipeline timing.
type Path struct {
	lines         LineSet
	routerLatency sim.Time
	links         []*Link
}

// PathConfig describes a route of hops identical links.
type PathConfig struct {
	Mode          PipelineMode
	Lines         LineSet
	Margin        sim.Time
	Sampler       SkewSampler
	Hops          int
	RouterLatency sim.Time // per-hop routing decision latency
}

// NewPath builds the per-hop links. For Wave mode the accumulated skew
// grows with the hop index; for SKWP every hop starts freshly sampled.
func NewPath(cfg PathConfig) (*Path, error) {
	if cfg.Hops <= 0 {
		return nil, fmt.Errorf("fabric: path needs at least one hop, got %d", cfg.Hops)
	}
	if cfg.RouterLatency < 0 {
		return nil, fmt.Errorf("fabric: negative router latency")
	}
	p := &Path{
		lines:         cfg.Lines,
		routerLatency: cfg.RouterLatency,
	}
	for h := 0; h < cfg.Hops; h++ {
		acc := 0
		if cfg.Mode == Wave {
			acc = h
		}
		l, err := NewLink(LinkConfig{
			Mode:            cfg.Mode,
			Lines:           cfg.Lines,
			Margin:          cfg.Margin,
			Sampler:         cfg.Sampler,
			AccumulatedHops: acc,
		})
		if err != nil {
			return nil, err
		}
		p.links = append(p.links, l)
	}
	return p, nil
}

// BottleneckInterval is the largest launch interval along the path; in
// a wormhole pipeline it bounds the end-to-end word rate.
func (p *Path) BottleneckInterval() sim.Time {
	max := sim.Time(0)
	for _, l := range p.links {
		if iv := l.LaunchInterval(); iv > max {
			max = iv
		}
	}
	return max
}

// HeadLatency is the time for the first word to reach the destination:
// per-hop propagation plus per-hop router latency.
func (p *Path) HeadLatency() sim.Time {
	var t sim.Time
	for _, l := range p.links {
		t += l.PropagationDelay() + p.routerLatency
	}
	return t
}

// TransferTime is the end-to-end time to move nWords through the
// wormhole pipeline: head latency + (n-1) bottleneck intervals.
func (p *Path) TransferTime(nWords int) sim.Time {
	if nWords <= 0 {
		return 0
	}
	return p.HeadLatency() + sim.Time(nWords-1)*p.BottleneckInterval()
}

// EffectiveBandwidth reports sustained payload bytes/sec for a transfer
// of nWords over this path, with width bits per word.
func (p *Path) EffectiveBandwidth(nWords int) float64 {
	t := p.TransferTime(nWords)
	if t <= 0 {
		return 0
	}
	bytes := float64(nWords) * float64(p.lines.Width()) / 8.0
	return bytes / t.Seconds()
}
