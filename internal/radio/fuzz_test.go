package radio

import (
	"testing"
	"testing/quick"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

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
