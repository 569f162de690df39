package core

import (
	"fmt"
	"sort"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
	"crn/internal/spectrum"
)

// TestCrossEngineEquivalenceUnderJammers is the cross-engine
// determinism lockdown for the spectrum subsystem: for every jammer
// family, Engine.Run and a radio.BatchEngine replica (running beside a
// decoy replica of the same stack) must produce identical results on
// the same seed — identical Stats and identical per-node protocol
// outcomes — table-driven across all four primitives' protocol stacks
// (CSEEK, CKSEEK, CGCAST dissemination, flooding). Stateful jammers
// (the reactive adversary) are re-instantiated per run via
// spectrum.RunScoped, exactly as the facade does per run.
func TestCrossEngineEquivalenceUnderJammers(t *testing.T) {
	const n, c, k, seed = 10, 4, 2, 5
	g, err := graph.GNP(n, 0.4, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(n, c, k, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: n, C: c, K: k, KMax: k, Delta: g.MaxDegree()}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	if d < 1 {
		d = 1
	}
	const horizon = 1 << 18

	markov, err := spectrum.NewMarkov(a.Universe, horizon, 0.05, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := spectrum.NewPoisson(a.Universe, horizon, 0.01, 12, spectrum.HoldGeometric, 7)
	if err != nil {
		t.Fatal(err)
	}
	jammers := []struct {
		name string
		j    spectrum.Jammer
	}{
		{"markov", markov},
		{"poisson", poisson},
		{"adversary", spectrum.NewReactiveAdversary(2)},
		{"compose", spectrum.Compose(markov, spectrum.NewReactiveAdversary(1))},
	}

	// Each primitive builds a fresh protocol stack and returns a
	// per-node outcome fingerprint extractor.
	type stack struct {
		protos  []radio.Protocol
		slots   int64
		outcome func() string
	}
	discoveryStack := func(t *testing.T, mk func(Env) (Discoverer, error)) stack {
		t.Helper()
		master := rng.New(seed + 2)
		ds := make([]Discoverer, n)
		protos := make([]radio.Protocol, n)
		for u := 0; u < n; u++ {
			dv, err := mk(Env{ID: radio.NodeID(u), C: c, Rand: master.Split(uint64(u))})
			if err != nil {
				t.Fatal(err)
			}
			ds[u] = dv
			protos[u] = dv
		}
		return stack{protos: protos, slots: ds[0].TotalSlots(), outcome: func() string {
			out := ""
			for u := 0; u < n; u++ {
				ids := ds[u].Discovered()
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				out += fmt.Sprintf("%d:%v;", u, ids)
			}
			return out
		}}
	}
	primitives := []struct {
		name  string
		build func(t *testing.T, nw *radio.Network) stack
	}{
		{"cseek", func(t *testing.T, _ *radio.Network) stack {
			return discoveryStack(t, func(env Env) (Discoverer, error) { return NewCSeek(p, env) })
		}},
		{"ckseek", func(t *testing.T, _ *radio.Network) stack {
			return discoveryStack(t, func(env Env) (Discoverer, error) { return NewCKSeek(p, env, k, p.Delta) })
		}},
		{"cgcast-dissem", func(t *testing.T, nw *radio.Network) stack {
			// Setup runs in abstract mode (no engine involved), so only
			// the dissemination stage exercises the engines under test —
			// built the same way DisseminateCtx builds it.
			session, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: seed + 3})
			if err != nil {
				t.Fatal(err)
			}
			rounds := scaledSteps(p.Tuning.DissemRounds, 1, p.LgN())
			master := rng.New(seed + 4)
			dps := make([]*dissemProto, n)
			protos := make([]radio.Protocol, n)
			for u := 0; u < n; u++ {
				dp := &dissemProto{
					env:      Env{ID: radio.NodeID(u), C: c, Rand: master.Split(uint64(u))},
					schedule: session.schedules[u],
					phases:   d,
					rounds:   rounds,
					lgDelta:  p.LgDelta(),
					delta:    p.Delta,
					informed: u == 0,
					msg:      "m",
					frame:    dissemMessage{Body: "m"},
				}
				dps[u] = dp
				protos[u] = dp
			}
			return stack{protos: protos, slots: dps[0].totalSlots(), outcome: func() string {
				out := ""
				for u, dp := range dps {
					out += fmt.Sprintf("%d:%v@%d;", u, dp.informed, dp.informedAt)
				}
				return out
			}}
		}},
		{"flood", func(t *testing.T, _ *radio.Network) stack {
			master := rng.New(seed + 5)
			fls := make([]*Flood, n)
			protos := make([]radio.Protocol, n)
			for u := 0; u < n; u++ {
				fl, err := NewFlood(p, Env{ID: radio.NodeID(u), C: c, Rand: master.Split(uint64(u))}, d, u == 0, "m")
				if err != nil {
					t.Fatal(err)
				}
				fls[u] = fl
				protos[u] = fl
			}
			return stack{protos: protos, slots: fls[0].TotalSlots(), outcome: func() string {
				out := ""
				for u, fl := range fls {
					out += fmt.Sprintf("%d:%v@%d;", u, fl.Informed(), fl.InformedAt())
				}
				return out
			}}
		}},
	}

	for _, jc := range jammers {
		for _, prim := range primitives {
			t.Run(jc.name+"/"+prim.name, func(t *testing.T) {
				network := func() *radio.Network {
					j := jc.j
					if rs, ok := j.(spectrum.RunScoped); ok {
						j = rs.NewRun()
					}
					return &radio.Network{Graph: g, Assign: a, Jammer: j}
				}
				run := func(replica bool) (radio.Stats, string) {
					nw := network()
					st := prim.build(t, nw)
					budget := st.slots + 1
					if budget > 30000 {
						budget = 30000 // equivalence needs a prefix, not a full schedule
					}
					if !replica {
						e, err := radio.NewEngine(nw, st.protos)
						if err != nil {
							t.Fatal(err)
						}
						return e.Run(budget), st.outcome()
					}
					decoyNW := network()
					decoy := prim.build(t, decoyNW)
					be, err := radio.NewBatchEngine(g, a, []radio.Replica{
						{Protocols: decoy.protos, Jammer: decoyNW.Jammer},
						{Protocols: st.protos, Jammer: nw.Jammer},
					})
					if err != nil {
						t.Fatal(err)
					}
					return be.Run(budget)[1], st.outcome()
				}
				wantStats, wantOutcome := run(false)
				gotStats, gotOutcome := run(true)
				if gotStats != wantStats {
					t.Errorf("batch replica stats = %+v, want %+v", gotStats, wantStats)
				}
				if gotOutcome != wantOutcome {
					t.Errorf("batch replica outcome diverged:\n got %s\nwant %s", gotOutcome, wantOutcome)
				}
			})
		}
	}
}
