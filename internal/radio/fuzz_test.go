package radio

import (
	"testing"
	"testing/quick"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// TestQuickEngineEquivalence fuzzes random networks, assignments and
// protocol behaviors and requires Engine.Run and a BatchEngine replica
// to agree exactly — the guarantee the batched sweep path rests on.
func TestQuickEngineEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		run := func(replica bool) ([][]NodeID, Stats) {
			r := rng.New(seed)
			g, err := graph.GNP(12, 0.35, r)
			if err != nil {
				return nil, Stats{}
			}
			a, err := chanassign.SharedPool(12, 4, 1, 8, rng.New(seed+1))
			if err != nil {
				return nil, Stats{}
			}
			nw := &Network{Graph: g, Assign: a}
			master := rng.New(seed + 2)
			protos := make([]Protocol, 12)
			rps := make([]*randomProto, 12)
			for i := range protos {
				rp := &randomProto{r: master.Split(uint64(i)), c: 4, slots: 60}
				rps[i] = rp
				protos[i] = rp
			}
			var st Stats
			if replica {
				st = runAsReplica(t, nw, protos, 1000)
			} else {
				e, err := NewEngine(nw, protos)
				if err != nil {
					return nil, Stats{}
				}
				st = e.Run(1000)
			}
			out := make([][]NodeID, 12)
			for i, rp := range rps {
				out[i] = rp.heard
			}
			return out, st
		}
		hs, ss := run(false)
		hp, sp := run(true)
		if hs == nil && hp == nil {
			return true // disconnected sample, skipped
		}
		if ss != sp {
			return false
		}
		for i := range hs {
			if len(hs[i]) != len(hp[i]) {
				return false
			}
			for j := range hs[i] {
				if hs[i][j] != hp[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickConservationLaws fuzzes runs and checks engine accounting
// invariants: action counts sum to node-slots, and deliveries never
// exceed listens.
func TestQuickConservationLaws(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := graph.GNP(10, 0.4, r)
		if err != nil {
			return true
		}
		a, err := chanassign.Identical(10, 3, rng.New(seed+1))
		if err != nil {
			return false
		}
		master := rng.New(seed + 2)
		protos := make([]Protocol, 10)
		for i := range protos {
			protos[i] = &randomProto{r: master.Split(uint64(i)), c: 3, slots: 40}
		}
		e, err := NewEngine(&Network{Graph: g, Assign: a}, protos)
		if err != nil {
			return false
		}
		st := e.Run(1000)
		nodeSlots := int64(10) * st.Slots
		if st.Broadcasts+st.Listens+st.Idles != nodeSlots {
			return false
		}
		if st.Deliveries+st.Collisions > st.Listens {
			return false
		}
		return st.Completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
