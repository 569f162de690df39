package core

import (
	"testing"

	"crn/internal/chanassign"
	"crn/internal/dynamics"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// TestCSeekEngineZeroAllocsSteadyState is the end-to-end allocation
// regression for CSEEK's hot path: a real discovery workload stepped by
// radio.Engine.Run must allocate nothing per slot once warmed up — in
// part one (COUNT sampling) and in part two (density-guided back-off)
// alike, on per-node and range dispatch (the facade attaches a
// SeekBank, so the range path is the production path), and under node
// churn, where down nodes leave the cohort and step on their own
// clocks as laggers. Warm-up covers the transient allocators: on
// per-node dispatch each one-member bank grows its first-heard records
// as it discovers (a merged bank pre-sizes them to Δ).
func TestCSeekEngineZeroAllocsSteadyState(t *testing.T) {
	for _, mode := range []string{"per-node", "range", "churn"} {
		t.Run(mode, func(t *testing.T) { testCSeekZeroAllocs(t, mode) })
	}
}

func testCSeekZeroAllocs(t *testing.T, mode string) {
	// n/c/seed are chosen so every pair discovers well inside part one
	// (asserted below); the stretched P2Steps multiplier lengthens part
	// two enough to host its own measurement window.
	const n, c = 4, 2
	g := graph.Complete(n)
	a, err := chanassign.Identical(n, c, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: n, C: c, K: c, KMax: c, Delta: n - 1, Tuning: Tuning{P2Steps: 30}}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	master := rng.New(32)
	seeks := make([]*CSeek, n)
	protos := make([]radio.Protocol, n)
	for u := 0; u < n; u++ {
		s, err := NewCSeek(p, Env{ID: radio.NodeID(u), C: c, Rand: master.Split(uint64(u))})
		if err != nil {
			t.Fatal(err)
		}
		seeks[u] = s
		protos[u] = s
	}
	banked := mode != "per-node"
	var bank *SeekBank
	if banked {
		bank = NewSeekBank(seeks)
	}
	nw := &radio.Network{Graph: g, Assign: a}
	if mode == "churn" {
		churn, err := dynamics.NewChurn(n, 0.002, 0.05, 33)
		if err != nil {
			t.Fatal(err)
		}
		nw.Topology = churn
	}
	e, err := radio.NewEngine(nw, protos)
	if err != nil {
		t.Fatal(err)
	}
	if e.RangeDispatch() != banked {
		t.Fatalf("banked=%v but RangeDispatch=%v", banked, e.RangeDispatch())
	}
	p1 := seeks[0].PartOneSlots()
	total := seeks[0].TotalSlots()
	if p1 < 4000 || total-p1 < 400 {
		t.Fatalf("schedule too short for the test layout: p1=%d total=%d", p1, total)
	}

	// Part-one steady state: warm up past the (seed-deterministic)
	// last discovery; every node must have found all neighbors by
	// then, so no discovery records are added during measurement.
	target := p1 - 1600
	e.Run(target)
	for u, s := range seeks {
		if s.DiscoveredCount() != n-1 {
			t.Fatalf("node %d discovered %d/%d neighbors after warm-up", u, s.DiscoveredCount(), n-1)
		}
	}
	if mode == "churn" && len(bank.laggers) == 0 {
		t.Fatal("churn took no node down during warm-up; the lagger path is not exercised")
	}
	step := func() {
		target += 100
		e.Run(target)
	}
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Errorf("part-one steady state allocates %.2f/100 slots, want 0", avg)
	}

	// Part-two steady state: cross into part two, then measure.
	target = p1 + 60
	e.Run(target)
	stepP2 := func() {
		target += 40
		e.Run(target)
	}
	if avg := testing.AllocsPerRun(5, stepP2); avg != 0 {
		t.Errorf("part-two steady state allocates %.2f/40 slots, want 0", avg)
	}
	if e.Stats().Deliveries == 0 {
		t.Fatal("workload produced no deliveries; test exercises nothing")
	}
	if mode == "churn" && e.Stats().DownSlots == 0 {
		t.Fatal("churn workload has no down slots")
	}
}

// TestPrepareCGCastAllocs bounds the allocations of CGCAST's abstract
// setup (stages 1–4) on a fixed 32-node unit-disk network. The edge
// state, proposals, decisions and two-hop views live in flat slices
// indexed by edge id and reused across phases, so the count no longer
// scales with phases × exchanges × edges. The map-based driver this
// replaced allocated 33,700 times here; the ceiling is a tenth of that.
func TestPrepareCGCastAllocs(t *testing.T) {
	const ceiling = 3370
	g, err := graph.UnitDisk(32, 0.35, rng.New(101))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(32, 6, 2, rng.New(102))
	if err != nil {
		t.Fatal(err)
	}
	k, kmax := a.OverlapRange(g)
	p := Params{N: 32, C: 6, K: k, KMax: kmax, Delta: g.MaxDegree()}
	nw := &radio.Network{Graph: g, Assign: a}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Errorf("PrepareCGCast allocates %.0f times, want <= %d", avg, ceiling)
	}
}
