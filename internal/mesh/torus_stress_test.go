package mesh

import (
	"testing"

	"vbuscluster/internal/sim"
)

func TestTorusRandomTrafficStress(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		eng := sim.NewEngine()
		cfg := testConfig(4, 4)
		cfg.Geometry.Torus = true
		m, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := seed
		rand := func(mod int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(mod))
			if v < 0 {
				v += mod
			}
			return v
		}
		n := 60
		for i := 0; i < n; i++ {
			src := NodeID(rand(m.Nodes()))
			dst := NodeID(rand(m.Nodes()))
			m.Send(src, dst, rand(4096), nil)
		}
		eng.Run()
		if got := m.Stats().MessagesDelivered; got != n {
			t.Fatalf("seed %d: delivered %d of %d (torus deadlock?)", seed, got, n)
		}
	}
}
