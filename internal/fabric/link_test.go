package fabric

import (
	"testing"
	"testing/quick"

	"vbuscluster/internal/sim"
)

// Standard test bundle: 32 lines, 40ns nominal propagation, +/-4ns skew
// spread, 2ns margin, 8ns sampler resolution. These mirror the
// calibration used by internal/cluster.
func testLines() LineSet {
	return NewLineSet(32, 40*sim.Nanosecond, 4*sim.Nanosecond, 1)
}

func mustLink(t *testing.T, cfg LinkConfig) *Link {
	t.Helper()
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLineSetStats(t *testing.T) {
	ls := LineSet{Delays: []sim.Time{10, 30, 20}}
	if ls.MaxDelay() != 30 || ls.MinDelay() != 10 || ls.Skew() != 20 {
		t.Fatalf("stats = max %v min %v skew %v", ls.MaxDelay(), ls.MinDelay(), ls.Skew())
	}
	if ls.Width() != 3 {
		t.Fatalf("width = %d", ls.Width())
	}
}

func TestNewLineSetDeterministic(t *testing.T) {
	a := NewLineSet(64, 40*sim.Nanosecond, 4*sim.Nanosecond, 7)
	b := NewLineSet(64, 40*sim.Nanosecond, 4*sim.Nanosecond, 7)
	for i := range a.Delays {
		if a.Delays[i] != b.Delays[i] {
			t.Fatal("same seed produced different line sets")
		}
	}
	c := NewLineSet(64, 40*sim.Nanosecond, 4*sim.Nanosecond, 8)
	same := true
	for i := range a.Delays {
		if a.Delays[i] != c.Delays[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical line sets")
	}
}

func TestNewLineSetBounds(t *testing.T) {
	ls := NewLineSet(128, 40*sim.Nanosecond, 4*sim.Nanosecond, 3)
	for _, d := range ls.Delays {
		if d < 36*sim.Nanosecond || d > 44*sim.Nanosecond {
			t.Fatalf("line delay %v outside nominal +/- spread", d)
		}
	}
}

func TestConventionalIntervalIsPropagation(t *testing.T) {
	ls := testLines()
	l := mustLink(t, LinkConfig{Mode: Conventional, Lines: ls, Margin: 2 * sim.Nanosecond})
	want := ls.MaxDelay() + 2*sim.Nanosecond
	if l.LaunchInterval() != want {
		t.Fatalf("conventional interval = %v, want %v", l.LaunchInterval(), want)
	}
}

func TestWaveIntervalIsSkewBound(t *testing.T) {
	ls := testLines()
	l := mustLink(t, LinkConfig{Mode: Wave, Lines: ls, Margin: 2 * sim.Nanosecond})
	want := ls.Skew() + 2*sim.Nanosecond
	if l.LaunchInterval() != want {
		t.Fatalf("wave interval = %v, want %v", l.LaunchInterval(), want)
	}
	if l.LaunchInterval() >= ls.MaxDelay() {
		t.Fatal("wave pipelining should beat conventional on this bundle")
	}
}

func TestWaveSkewAccumulatesAcrossHops(t *testing.T) {
	ls := testLines()
	iv := make([]sim.Time, 4)
	for h := 0; h < 4; h++ {
		l := mustLink(t, LinkConfig{Mode: Wave, Lines: ls, Margin: 2 * sim.Nanosecond, AccumulatedHops: h})
		iv[h] = l.LaunchInterval()
	}
	for h := 1; h < 4; h++ {
		if iv[h] < iv[h-1] {
			t.Fatalf("wave interval shrank with hops: %v", iv)
		}
	}
	if iv[3] == iv[0] {
		t.Fatalf("wave interval did not grow with accumulated hops: %v", iv)
	}
}

func TestWaveIntervalCappedAtConventional(t *testing.T) {
	ls := testLines()
	l := mustLink(t, LinkConfig{Mode: Wave, Lines: ls, Margin: 2 * sim.Nanosecond, AccumulatedHops: 1000})
	conv := mustLink(t, LinkConfig{Mode: Conventional, Lines: ls, Margin: 2 * sim.Nanosecond})
	if l.LaunchInterval() > conv.LaunchInterval() {
		t.Fatalf("degenerate wave link (%v) worse than conventional (%v)", l.LaunchInterval(), conv.LaunchInterval())
	}
}

func TestSKWPIntervalConstantAcrossHops(t *testing.T) {
	ls := testLines()
	samp := SkewSampler{Resolution: 8 * sim.Nanosecond}
	var first sim.Time
	for h := 0; h < 8; h++ {
		l := mustLink(t, LinkConfig{Mode: SKWP, Lines: ls, Margin: 2 * sim.Nanosecond, Sampler: samp, AccumulatedHops: h})
		if h == 0 {
			first = l.LaunchInterval()
		} else if l.LaunchInterval() != first {
			t.Fatalf("SKWP interval changed with hops: %v vs %v", l.LaunchInterval(), first)
		}
	}
}

// §2.1: "SKWP increases the bandwidth up to four times higher than
// conventional pipelining."
func TestSKWPRoughlyFourTimesConventional(t *testing.T) {
	ls := testLines()
	samp := SkewSampler{Resolution: 8 * sim.Nanosecond}
	skwp := mustLink(t, LinkConfig{Mode: SKWP, Lines: ls, Margin: 2 * sim.Nanosecond, Sampler: samp})
	conv := mustLink(t, LinkConfig{Mode: Conventional, Lines: ls, Margin: 2 * sim.Nanosecond})
	ratio := skwp.BandwidthBytesPerSec() / conv.BandwidthBytesPerSec()
	if ratio < 3.0 || ratio > 6.0 {
		t.Fatalf("SKWP/conventional bandwidth ratio = %.2f, want ~4x", ratio)
	}
}

func TestSamplerResidual(t *testing.T) {
	samp := SkewSampler{Resolution: 8 * sim.Nanosecond}
	big := LineSet{Delays: []sim.Time{10 * sim.Nanosecond, 50 * sim.Nanosecond}}
	if r := samp.Residual(big); r != 8*sim.Nanosecond {
		t.Fatalf("residual of large skew = %v, want resolution", r)
	}
	small := LineSet{Delays: []sim.Time{10 * sim.Nanosecond, 12 * sim.Nanosecond}}
	if r := samp.Residual(small); r != 2*sim.Nanosecond {
		t.Fatalf("residual of small skew = %v, want 2ns", r)
	}
}

func TestSamplerAlign(t *testing.T) {
	samp := SkewSampler{Resolution: 8 * sim.Nanosecond}
	ls := LineSet{Delays: []sim.Time{11 * sim.Nanosecond, 37 * sim.Nanosecond, 20 * sim.Nanosecond}}
	out := samp.Align(ls)
	if out.Skew() > samp.Resolution {
		t.Fatalf("aligned skew %v exceeds resolution %v", out.Skew(), samp.Resolution)
	}
	if out.MaxDelay() < ls.MaxDelay() {
		t.Fatal("sampler cannot make signals arrive earlier than slowest line")
	}
	if out.MaxDelay()%samp.Resolution != 0 {
		t.Fatalf("merge point %v not on sampling grid", out.MaxDelay())
	}
}

func TestSamplerAlignProperty(t *testing.T) {
	f := func(seed int64, widthRaw uint8) bool {
		width := int(widthRaw%32) + 1
		ls := NewLineSet(width, 40*sim.Nanosecond, 10*sim.Nanosecond, seed)
		samp := SkewSampler{Resolution: 4 * sim.Nanosecond}
		out := samp.Align(ls)
		return out.Skew() <= samp.Resolution && out.MaxDelay() >= ls.MaxDelay() && out.Width() == width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationTime(t *testing.T) {
	ls := testLines()
	l := mustLink(t, LinkConfig{Mode: Conventional, Lines: ls, Margin: 0})
	if l.SerializationTime(0) != 0 {
		t.Fatal("zero words should take zero time")
	}
	if l.SerializationTime(1) != l.PropagationDelay() {
		t.Fatal("single word should take one propagation delay")
	}
	ten := l.SerializationTime(10)
	want := 9*l.LaunchInterval() + l.PropagationDelay()
	if ten != want {
		t.Fatalf("10-word serialization = %v, want %v", ten, want)
	}
}

func TestLinkValidation(t *testing.T) {
	if _, err := NewLink(LinkConfig{}); err == nil {
		t.Fatal("empty link config accepted")
	}
	ls := testLines()
	if _, err := NewLink(LinkConfig{Mode: SKWP, Lines: ls}); err == nil {
		t.Fatal("SKWP without sampler accepted")
	}
	if _, err := NewLink(LinkConfig{Mode: Conventional, Lines: ls, Margin: -1}); err == nil {
		t.Fatal("negative margin accepted")
	}
	if _, err := NewLink(LinkConfig{Mode: Conventional, Lines: ls, AccumulatedHops: -1}); err == nil {
		t.Fatal("negative hops accepted")
	}
	if _, err := NewLink(LinkConfig{Mode: PipelineMode(42), Lines: ls}); err == nil {
		t.Fatal("unknown pipeline mode accepted")
	}
}

// The wire terms are computed once in NewLink: they must equal what the
// configuration says for every discipline, stay put when the caller
// later rewrites the delay slice it passed in, and cost no allocation
// to read.
func TestLinkConstantsMatchConfig(t *testing.T) {
	for _, mode := range []PipelineMode{Conventional, Wave, SKWP} {
		ls := testLines()
		cfg := LinkConfig{
			Mode: mode, Lines: ls, Margin: 2 * sim.Nanosecond,
			Sampler: SkewSampler{Resolution: 8 * sim.Nanosecond}, AccumulatedHops: 2,
		}
		l := mustLink(t, cfg)
		ref := cfg
		ref.Lines = LineSet{Delays: append([]sim.Time(nil), ls.Delays...)}
		for i := range ls.Delays {
			ls.Delays[i] = 1 // the caller's slice, not the link's
		}
		wantLaunch, err := launchInterval(ref)
		if err != nil {
			t.Fatal(err)
		}
		if l.LaunchInterval() != wantLaunch || l.PropagationDelay() != ref.Lines.MaxDelay() || l.Width() != ref.Lines.Width() {
			t.Fatalf("%v: cached width/propagation/launch = %d/%v/%v, config says %d/%v/%v", mode,
				l.Width(), l.PropagationDelay(), l.LaunchInterval(),
				ref.Lines.Width(), ref.Lines.MaxDelay(), wantLaunch)
		}
		const router = 3 * sim.Nanosecond
		wantWire := sim.Time(5+2)*(router+ref.Lines.MaxDelay()) + sim.Time(100/4-1)*wantLaunch
		if got := l.WormholeTime(100, 5, router); got != wantWire {
			t.Fatalf("%v: WormholeTime(100, 5) = %v, want %v", mode, got, wantWire)
		}
		var sink sim.Time
		if n := testing.AllocsPerRun(100, func() {
			sink += l.LaunchInterval() + l.PropagationDelay() + l.WormholeTime(4096, 3, router)
		}); n != 0 {
			t.Fatalf("%v: reading the wire terms allocates %v times", mode, n)
		}
		_ = sink
	}
}

func TestModeString(t *testing.T) {
	if Conventional.String() != "conventional" || Wave.String() != "wave" || SKWP.String() != "skwp" {
		t.Fatal("mode strings wrong")
	}
	if PipelineMode(42).String() == "" {
		t.Fatal("unknown mode should still stringify")
	}
}
