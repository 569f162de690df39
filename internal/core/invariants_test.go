package core

import (
	"testing"
	"testing/quick"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// TestQuickCSeekScheduleInvariants fuzzes model parameters and checks
// the schedule arithmetic: part one plus part two equals the total,
// part one is a whole number of COUNT executions, and part two a whole
// number of lgΔ-slot steps.
func TestQuickCSeekScheduleInvariants(t *testing.T) {
	f := func(seed uint64, cRaw, kRaw, dRaw uint8) bool {
		c := int(cRaw%12) + 1
		k := int(kRaw)%c + 1
		delta := int(dRaw%20) + 1
		n := delta + 2
		p := Params{N: n, C: c, K: k, KMax: k, Delta: delta}
		if err := p.Normalize(); err != nil {
			return false
		}
		env := Env{ID: 0, C: c, Rand: rng.New(seed)}
		s, err := NewCSeek(p, env)
		if err != nil {
			return false
		}
		if s.PartOneSlots()+s.PartTwoSlots() != s.TotalSlots() {
			return false
		}
		countLen := int64(p.countSchedule().TotalSlots())
		if s.PartOneSlots()%countLen != 0 {
			return false
		}
		return s.PartTwoSlots()%int64(p.LgDelta()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCKSeekNeverLongerThanFallback: with Δ_k̂ ≤ Δ, CKSEEK's
// schedule is monotone in Δ_k̂ — using a good estimate never costs
// more than the Δ fallback.
func TestQuickCKSeekMonotoneInDeltaKhat(t *testing.T) {
	f := func(seed uint64, dkRaw uint8) bool {
		p := Params{N: 64, C: 8, K: 2, KMax: 6, Delta: 10}
		env := Env{ID: 0, C: 8, Rand: rng.New(seed)}
		dk := int(dkRaw % 11) // 0..10
		withEstimate, err := NewCKSeek(p, env, 4, dk)
		if err != nil {
			return false
		}
		fallback, err := NewCKSeek(p, env, 4, p.Delta)
		if err != nil {
			return false
		}
		return withEstimate.TotalSlots() <= fallback.TotalSlots()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCSeekCountsMatchSum: the per-channel counts always sum to the
// internal total used for weighted listening.
func TestCSeekCountsMatchSum(t *testing.T) {
	g := graph.Star(9)
	a, err := chanassign.SharedCore(9, 3, 2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, g, a)
	ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
		s, err := NewCSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	for u, d := range ds {
		s := d.(*CSeek)
		var sum int64
		for _, c := range s.Counts() {
			sum += c
		}
		if cs := s.bank.nodes[s.idx].countSum; sum != cs {
			t.Errorf("node %d: counts sum %d != countSum %d", u, sum, cs)
		}
	}
}

// TestSessionDisseminateDeterminism: the same session disseminating
// with the same seed produces identical outcomes; different seeds may
// differ in timing but must still inform everyone.
func TestSessionDisseminateDeterminism(t *testing.T) {
	g := graph.Path(8)
	a, err := chanassign.SharedCore(8, 3, 2, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	nw := &radio.Network{Graph: g, Assign: a}
	k, kmax := a.OverlapRange(g)
	p := Params{N: 8, C: 3, K: k, KMax: kmax, Delta: g.MaxDegree()}
	session, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()

	r1, err := session.Disseminate(d, 0, "m", 77)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := session.Disseminate(d, 0, "m", 77)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AllInformedAt != r2.AllInformedAt || r1.ScheduleSlots != r2.ScheduleSlots {
		t.Errorf("same-seed disseminations differ: %+v vs %+v", r1, r2)
	}
	r3, err := session.Disseminate(d, 7, "other", 99)
	if err != nil {
		t.Fatal(err)
	}
	for u, inf := range r3.Informed {
		if !inf {
			t.Errorf("node %d uninformed from source 7", u)
		}
	}
}

// TestSessionAccessors sanity-checks the exported session state.
func TestSessionAccessors(t *testing.T) {
	g := graph.Path(6)
	a, err := chanassign.SharedCore(6, 3, 2, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	nw := &radio.Network{Graph: g, Assign: a}
	k, kmax := a.OverlapRange(g)
	p := Params{N: 6, C: 3, K: k, KMax: kmax, Delta: g.MaxDegree()}
	session, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if session.SetupSlots() <= 0 {
		t.Errorf("SetupSlots = %d", session.SetupSlots())
	}
	if session.ColoringPhases() < 1 {
		t.Errorf("ColoringPhases = %d", session.ColoringPhases())
	}
	if session.EdgesColored() != g.M() {
		t.Errorf("EdgesColored = %d, want %d", session.EdgesColored(), g.M())
	}
	if _, err := session.Disseminate(0, 0, "m", 1); err == nil {
		t.Error("D=0 accepted")
	}
	if _, err := session.Disseminate(3, 99, "m", 1); err == nil {
		t.Error("bad source accepted")
	}
}
