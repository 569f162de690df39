package radio

import (
	"testing"

	"crn/internal/graph"
)

// stubJammer jams a fixed set of (slot, channel) pairs.
type stubJammer struct {
	jam map[[2]int64]bool
}

func (j *stubJammer) Jammed(slot int64, ch int32) bool {
	return j.jam[[2]int64{slot, int64(ch)}]
}

func TestJammedChannelSilencesListener(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 2, 31)
	nw.Jammer = &stubJammer{jam: map[[2]int64]bool{{0, 0}: true}}

	// Slot 0: broadcast on (jammed) global channel 0 → lost.
	// Slot 1: same broadcast, channel now clear → delivered.
	b := &scriptProto{script: []Action{
		{Kind: Broadcast, Ch: localFor(t, nw, 0, 0), Data: "x"},
		{Kind: Broadcast, Ch: localFor(t, nw, 0, 0), Data: "y"},
	}}
	l := &scriptProto{script: []Action{
		{Kind: Listen, Ch: localFor(t, nw, 1, 0)},
		{Kind: Listen, Ch: localFor(t, nw, 1, 0)},
	}}
	e, err := NewEngine(nw, []Protocol{b, l})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(10)
	if l.heard[0] != nil {
		t.Error("heard a frame on a jammed channel")
	}
	if l.heard[1] == nil || l.heard[1].Data != "y" {
		t.Errorf("clear-channel frame lost: %v", l.heard[1])
	}
	if st.JammedListens != 1 {
		t.Errorf("JammedListens = %d, want 1", st.JammedListens)
	}
	if st.Deliveries != 1 {
		t.Errorf("Deliveries = %d, want 1", st.Deliveries)
	}
}

func TestJammingOnlyAffectsItsChannel(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 2, 32)
	nw.Jammer = &stubJammer{jam: map[[2]int64]bool{{0, 0}: true}}

	// Broadcast and listen on global channel 1 while channel 0 is
	// jammed: delivery must succeed.
	b := &scriptProto{script: []Action{{Kind: Broadcast, Ch: localFor(t, nw, 0, 1), Data: "ok"}}}
	l := &scriptProto{script: []Action{{Kind: Listen, Ch: localFor(t, nw, 1, 1)}}}
	e, err := NewEngine(nw, []Protocol{b, l})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(10)
	if l.heard[0] == nil || l.heard[0].Data != "ok" {
		t.Errorf("delivery on clear channel failed: %v", l.heard[0])
	}
	if st.JammedListens != 0 {
		t.Errorf("JammedListens = %d, want 0", st.JammedListens)
	}
}

// TestJammingParallelEngineAgrees: under a jammer, the workload run as
// a BatchEngine replica beside decoy replicas reports the same stats
// as Engine.Run.
func TestJammingParallelEngineAgrees(t *testing.T) {
	run := func(replica bool) Stats {
		g := graph.Star(8)
		nw := newTestNetwork(t, g, 3, 33)
		nw.Jammer = &stubJammer{jam: map[[2]int64]bool{
			{0, 0}: true, {1, 1}: true, {2, 2}: true, {5, 0}: true,
		}}
		protos := make([]Protocol, 8)
		for i := range protos {
			script := make([]Action, 12)
			for s := range script {
				if i%2 == 0 {
					script[s] = Action{Kind: Listen, Ch: (i + s) % 3}
				} else {
					script[s] = Action{Kind: Broadcast, Ch: (i + s) % 3, Data: i}
				}
			}
			protos[i] = &scriptProto{script: script}
		}
		if replica {
			return runAsReplica(t, nw, protos, 100)
		}
		e, err := NewEngine(nw, protos)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(100)
	}
	seq := run(false)
	rep := run(true)
	if seq != rep {
		t.Errorf("stats differ under jamming: Run %+v vs batch replica %+v", seq, rep)
	}
}
