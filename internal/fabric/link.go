// Package fabric models the physical layer of the V-Bus network card:
// parallel signal lines, conventional pipelining, wave pipelining, and
// the paper's skew-tolerant wave pipelining (SKWP).
//
// The model follows §2.1 of the paper. A link is a bundle of parallel
// signal lines. In conventional pipelining a new data word may only be
// launched after the previous word has fully propagated, so the launch
// interval equals the worst-case line propagation delay. Wave
// pipelining launches several "waves" concurrently; the launch interval
// is then bounded not by propagation delay but by the *skew* between
// the fastest and slowest line (plus a safety margin), because a wave
// must not smear into its neighbor. Plain wave pipelining has two
// problems the paper calls out: tuning the per-line skew requires
// "tremendous efforts", and end-to-end skew accumulates while passing
// through several wave-pipelined cards. SKWP inserts an automatic skew
// sampling circuit at each hop that detects the delay difference
// between all signal lines, samples each line, and re-merges the
// signals in phase — so the inter-hop skew is reset at every card and
// the launch interval is bounded by the (small) residual sampling
// error only.
package fabric

import (
	"fmt"
	"math/rand"

	"vbuscluster/internal/sim"
)

// PipelineMode selects the link signalling discipline.
type PipelineMode int

const (
	// Conventional waits a full propagation delay between words.
	Conventional PipelineMode = iota
	// Wave launches a new word every (accumulated skew + margin).
	Wave
	// SKWP launches a new word every (residual skew + margin); skew is
	// resampled at each hop so it does not accumulate.
	SKWP
)

// String implements fmt.Stringer.
func (m PipelineMode) String() string {
	switch m {
	case Conventional:
		return "conventional"
	case Wave:
		return "wave"
	case SKWP:
		return "skwp"
	default:
		return fmt.Sprintf("PipelineMode(%d)", int(m))
	}
}

// LineSet is the per-line propagation delay profile of one physical
// link. Delays are deterministic for a given seed so experiments are
// reproducible.
type LineSet struct {
	Delays []sim.Time // per-line propagation delay
}

// NewLineSet generates width lines with delays of nominal +/- spread,
// drawn from a seeded PRNG.
func NewLineSet(width int, nominal, spread sim.Time, seed int64) LineSet {
	if width <= 0 {
		panic("fabric: line width must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	d := make([]sim.Time, width)
	for i := range d {
		jitter := sim.Time(rng.Int63n(int64(2*spread+1))) - spread
		d[i] = nominal + jitter
		if d[i] < 1 {
			d[i] = 1
		}
	}
	return LineSet{Delays: d}
}

// Width reports the number of signal lines.
func (ls LineSet) Width() int { return len(ls.Delays) }

// MaxDelay reports the slowest line's propagation delay.
func (ls LineSet) MaxDelay() sim.Time {
	max := sim.Time(0)
	for _, d := range ls.Delays {
		if d > max {
			max = d
		}
	}
	return max
}

// MinDelay reports the fastest line's propagation delay.
func (ls LineSet) MinDelay() sim.Time {
	if len(ls.Delays) == 0 {
		return 0
	}
	min := ls.Delays[0]
	for _, d := range ls.Delays[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// Skew reports the spread between the slowest and fastest line. This is
// what bounds the wave launch interval.
func (ls LineSet) Skew() sim.Time { return ls.MaxDelay() - ls.MinDelay() }

// SkewSampler models the automatic skew sampling circuit of §2.1. It
// detects the delay differences between all signal lines, samples each
// signal on a phase grid of the given resolution, and merges them back
// into a single phase. After sampling, the remaining line-to-line skew
// is bounded by the sampling resolution.
type SkewSampler struct {
	// Resolution is the phase-grid step of the sampling circuit. The
	// residual skew after realignment is at most one step.
	Resolution sim.Time
}

// Residual reports the skew left after the sampler realigns the lines.
// A perfectly aligned bundle stays aligned; otherwise the skew collapses
// to at most the sampling resolution.
func (s SkewSampler) Residual(ls LineSet) sim.Time {
	sk := ls.Skew()
	if sk <= s.Resolution {
		return sk
	}
	return s.Resolution
}

// Align returns a new LineSet as seen downstream of the sampler: every
// line delayed to the sampling grid point at or after the slowest line.
// The result's skew is at most the sampler resolution.
func (s SkewSampler) Align(ls LineSet) LineSet {
	if s.Resolution <= 0 {
		panic("fabric: sampler resolution must be positive")
	}
	max := ls.MaxDelay()
	// Round the merge point up to the next grid point.
	grid := ((max + s.Resolution - 1) / s.Resolution) * s.Resolution
	out := LineSet{Delays: make([]sim.Time, len(ls.Delays))}
	for i, d := range ls.Delays {
		// Each line is sampled at the first grid point >= its own
		// arrival, then held until the merge point; downstream all
		// lines present data within one grid step of each other.
		_ = d
		out.Delays[i] = grid
	}
	return out
}

// LinkConfig describes one physical link (one mesh channel).
type LinkConfig struct {
	Mode PipelineMode
	// Lines is the delay profile of the link's signal bundle.
	Lines LineSet
	// Margin is the signalling safety margin added to the skew bound
	// when computing the wave launch interval.
	Margin sim.Time
	// Sampler is the skew sampling circuit; used by SKWP only.
	Sampler SkewSampler
	// Hops the signal has traversed so far without resampling. Plain
	// wave pipelining accumulates skew across hops; SKWP resets it.
	AccumulatedHops int
}

// Link is a unidirectional channel between two routers (or a router and
// a NIC). NewLink derives the three terms every wire-time formula reads
// — bundle width, propagation delay and launch interval — from the
// physical model once; the link keeps those and no reference to the
// configuration's delay slice, so it is immutable whatever the caller
// does with that slice afterwards.
type Link struct {
	mode        PipelineMode
	width       int
	propagation sim.Time
	launch      sim.Time
}

// NewLink validates the configuration and returns a link.
func NewLink(cfg LinkConfig) (*Link, error) {
	if cfg.Lines.Width() == 0 {
		return nil, fmt.Errorf("fabric: link needs at least one signal line")
	}
	if cfg.Margin < 0 {
		return nil, fmt.Errorf("fabric: negative margin %v", cfg.Margin)
	}
	if cfg.Mode == SKWP && cfg.Sampler.Resolution <= 0 {
		return nil, fmt.Errorf("fabric: SKWP link requires a sampler resolution")
	}
	if cfg.AccumulatedHops < 0 {
		return nil, fmt.Errorf("fabric: negative accumulated hops")
	}
	launch, err := launchInterval(cfg)
	if err != nil {
		return nil, err
	}
	return &Link{
		mode:        cfg.Mode,
		width:       cfg.Lines.Width(),
		propagation: cfg.Lines.MaxDelay(),
		launch:      launch,
	}, nil
}

// Mode reports the signalling discipline.
func (l *Link) Mode() PipelineMode { return l.mode }

// Width reports the number of parallel data lines, i.e. bits moved per
// launch.
func (l *Link) Width() int { return l.width }

// PropagationDelay is the time for one wavefront to cross the link
// (slowest line).
func (l *Link) PropagationDelay() sim.Time { return l.propagation }

// LaunchInterval is the minimum spacing between consecutive words on
// the link. This is the inverse of link throughput.
func (l *Link) LaunchInterval() sim.Time { return l.launch }

// launchInterval derives the launch interval of a link from its
// physical model; an unknown signalling discipline is an error.
func launchInterval(cfg LinkConfig) (sim.Time, error) {
	var iv sim.Time
	switch cfg.Mode {
	case Conventional:
		// One wave in flight at a time.
		return cfg.Lines.MaxDelay() + cfg.Margin, nil
	case Wave:
		// Skew accumulates linearly with unsampled hops (paper: "the
		// end-to-end skew between signal lines can be magnified while
		// passing through several wave-pipelined network cards").
		sk := cfg.Lines.Skew() * sim.Time(cfg.AccumulatedHops+1)
		if pd := cfg.Lines.MaxDelay(); sk > pd {
			sk = pd // cannot be worse than conventional
		}
		iv = sk + cfg.Margin
	case SKWP:
		iv = cfg.Sampler.Residual(cfg.Lines) + cfg.Margin
	default:
		return 0, fmt.Errorf("fabric: unknown pipeline mode %v", cfg.Mode)
	}
	if iv < 1 {
		iv = 1
	}
	return iv, nil
}

// WormholeTime is the wormhole pipeline time of a payload over hops
// routed channels of this link type (+2 for inject/eject): the head
// flit pays router latency and propagation per channel, every later
// flit one launch interval.
func (l *Link) WormholeTime(bytes, hops int, routerLatency sim.Time) sim.Time {
	bpf := l.width / 8
	flits := (bytes + bpf - 1) / bpf
	if flits == 0 {
		flits = 1
	}
	head := sim.Time(hops+2) * (routerLatency + l.propagation)
	return head + sim.Time(flits-1)*l.launch
}

// WordsPerSecond reports link throughput in words (Width bits) per
// second.
func (l *Link) WordsPerSecond() float64 {
	return 1.0 / l.LaunchInterval().Seconds()
}

// BandwidthBytesPerSec reports payload bandwidth assuming every line
// carries payload.
func (l *Link) BandwidthBytesPerSec() float64 {
	return l.WordsPerSecond() * float64(l.Width()) / 8.0
}

// SerializationTime is the time to clock nWords onto the link after the
// first word is launched: (n-1) launch intervals plus one propagation.
func (l *Link) SerializationTime(nWords int) sim.Time {
	if nWords <= 0 {
		return 0
	}
	return sim.Time(nWords-1)*l.LaunchInterval() + l.PropagationDelay()
}
