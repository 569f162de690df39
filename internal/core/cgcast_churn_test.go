package core

import (
	"context"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/dynamics"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// TestCGCastFullModeChurnChannelsAgree is the regression test for
// full-mode dedicated-channel fixing under a dynamic topology. Stage 1
// first-heard slots are local clocks that freeze while a node is down,
// so comparing them across endpoints — and reading each endpoint's
// channel log at the other's local slot — let the two ends of one
// established edge name different global channels. Fixing runs on the
// engine clock: every live edge's endpoints must name the same global
// channel.
func TestCGCastFullModeChurnChannelsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 40 full-mode discovery stages")
	}
	g := graph.Path(12)
	a, err := chanassign.SharedCore(12, 4, 2, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: 12, C: 4, K: 2, KMax: 2, Delta: g.MaxDegree()}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	var live, mismatched int
	for seed := uint64(1); seed <= 40; seed++ {
		churn, err := dynamics.NewChurn(12, 0.01, 0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		nw := &radio.Network{Graph: g, Assign: a, Topology: churn.NewRun()}
		l, m := fixDedicatedChannels(t, nw, p, seed)
		live += l
		mismatched += m
	}
	t.Logf("%d live edges, %d with endpoints on different global channels", live, mismatched)
	if live == 0 {
		t.Fatal("no edge was established; the test checks nothing")
	}
	if mismatched != 0 {
		t.Errorf("%d of %d live edges have endpoints on different global channels", mismatched, live)
	}
}

// fixDedicatedChannels runs full-mode stages 1–2 and counts the live
// edges and those whose endpoints' dedicated channels disagree.
func fixDedicatedChannels(t *testing.T, nw *radio.Network, p Params, seed uint64) (live, mismatched int) {
	t.Helper()
	d := &cgcastDriver{
		ctx: context.Background(), nw: nw, p: p, mode: ExchangeFull,
		master: rng.New(seed), n: nw.Graph.N(),
	}
	probe, err := NewCSeek(p, Env{ID: 0, C: p.C, Rand: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	d.exchangeSlots = probe.TotalSlots()
	d.buildEdgeState()
	if err := d.establishEdges(); err != nil {
		t.Fatal(err)
	}
	global := make([]int32, len(d.edges)*2)
	for u := 0; u < d.n; u++ {
		for s := d.off[u]; s < d.off[u+1]; s++ {
			e := d.slotEdge[s]
			if !d.live[e] {
				continue
			}
			end := 0
			if int(d.edges[e].V) == u {
				end = 1
			}
			global[2*int(e)+end] = nw.Assign.Global(u, int(d.localCh[s]))
		}
	}
	for e, ok := range d.live {
		if !ok {
			continue
		}
		live++
		if global[2*e] != global[2*e+1] {
			mismatched++
		}
	}
	return live, mismatched
}
