package nic

import (
	"testing"

	"vbuscluster/internal/sim"
)

func TestNewRDMAValidation(t *testing.T) {
	if _, err := NewRDMA(DefaultRDMAConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*RDMAConfig)
	}{
		{"negative wire rate", func(c *RDMAConfig) { c.WirePerByte = -1 }},
		{"negative switch latency", func(c *RDMAConfig) { c.SwitchLatency = -1 }},
		{"negative post", func(c *RDMAConfig) { c.PostOverhead = -1 }},
		{"negative copy rate", func(c *RDMAConfig) { c.CopyPerByte = -1 }},
		{"negative reg base", func(c *RDMAConfig) { c.RegBase = -1 }},
		{"negative reg rate", func(c *RDMAConfig) { c.RegPerByte = -1 }},
		{"negative sg rate", func(c *RDMAConfig) { c.SGPerElement = -1 }},
		{"negative ctrl bytes", func(c *RDMAConfig) { c.CtrlBytes = -1 }},
		{"zero cache entries", func(c *RDMAConfig) { c.RegCacheEntries = 0 }},
		{"reg slope at eager slope", func(c *RDMAConfig) { c.RegPerByte = 2 * c.CopyPerByte }},
		{"reg slope above eager slope", func(c *RDMAConfig) { c.RegPerByte = 2*c.CopyPerByte + 1 }},
	} {
		cfg := DefaultRDMAConfig()
		tc.mutate(&cfg)
		if _, err := NewRDMA(cfg); err == nil {
			t.Errorf("%s: NewRDMA accepted the config", tc.name)
		}
	}
}

func TestRDMACaps(t *testing.T) {
	r, err := NewRDMA(DefaultRDMAConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Caps().String(); got != "dma+hops+rndv" {
		t.Errorf("caps = %q, want dma+hops+rndv", got)
	}
}

// A registered (cached) rendezvous must be strictly cheaper than a cold
// one — by exactly the registration cost — and still dearer than the
// raw wire: the handshake never disappears.
func TestRDMAWarmBelowCold(t *testing.T) {
	r, err := NewRDMA(DefaultRDMAConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRDMAConfig()
	for _, bytes := range []int{8, 1024, 1 << 20} {
		for _, hops := range []int{0, 1, 4} {
			cold := r.RendezvousTime(bytes, hops, false)
			warm := r.RendezvousTime(bytes, hops, true)
			if warm >= cold {
				t.Fatalf("warm rendezvous %v not below cold %v (%d bytes, %d hops)", warm, cold, bytes, hops)
			}
			wantGap := cfg.RegBase + sim.Time(bytes)*cfg.RegPerByte
			if cold-warm != wantGap {
				t.Errorf("cold-warm gap %v != registration cost %v (%d bytes)", cold-warm, wantGap, bytes)
			}
			if warm <= r.ContigTime(bytes, hops) {
				t.Errorf("warm rendezvous %v not above the raw wire %v (%d bytes, %d hops)",
					warm, r.ContigTime(bytes, hops), bytes, hops)
			}
		}
	}
}

// The default calibration's cold crossover sits in the few-KB band of
// the MPICH2-over-InfiniBand designs, and warming the cache pulls it
// below 1 KB.
func TestRDMADefaultCrossoverShape(t *testing.T) {
	r, err := NewRDMA(DefaultRDMAConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold := r.ProtocolCrossoverBytes(1, 0)
	warm := r.ProtocolCrossoverBytes(1, 1)
	if cold < 1<<10 || cold > 1<<14 {
		t.Errorf("cold crossover %d bytes outside the plausible [1KB,16KB] band", cold)
	}
	if warm <= 0 || warm >= cold {
		t.Errorf("warm crossover %d bytes, want positive and below cold %d", warm, cold)
	}
	if warm > 1<<10 {
		t.Errorf("warm crossover %d bytes, want at most 1KB", warm)
	}
}
