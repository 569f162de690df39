package crn

import (
	"context"
	"testing"
)

// TestDiscoveryRunAllocs bounds the allocations of one whole
// Discovery(CSeek) run through the facade on a fixed 32-node
// unit-disk scenario: protocol construction, the SeekBank, the engine,
// the slot loop and result assembly. CSEEK's per-node state lives in
// the bank's flat slices with first-heard records pre-sized to Δ, so
// the count does not grow with discoveries. The per-node machines
// with two maps each that the bank replaced allocated 1,043 times per
// run here; the ceiling is a third of that.
func TestDiscoveryRunAllocs(t *testing.T) {
	const ceiling = 1043 / 3
	s, err := New(WithTopology(UnitDisk), WithNodes(32), WithChannels(4, 2, 0), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	prim := Discovery(CSeek)
	ctx := context.Background()
	avg := testing.AllocsPerRun(5, func() {
		res, err := prim.Run(ctx, s, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Discovery.PairsDiscovered == 0 {
			t.Fatal("run discovered nothing")
		}
	})
	t.Logf("Discovery(CSeek) run: %.0f allocs", avg)
	if avg > ceiling {
		t.Errorf("Discovery(CSeek) run allocates %.0f times, want <= %d", avg, ceiling)
	}
}
