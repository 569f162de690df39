package radio

import (
	"testing"

	"crn/internal/graph"
)

func TestDelayedIdlesBeforeStart(t *testing.T) {
	inner := &scriptProto{script: []Action{
		{Kind: Broadcast, Ch: 0, Data: "late"},
	}}
	d := &Delayed{Start: 3, Inner: inner}
	for slot := int64(0); slot < 3; slot++ {
		if a := d.Act(slot); a.Kind != Idle {
			t.Fatalf("slot %d: kind %v, want Idle", slot, a.Kind)
		}
		d.Observe(slot, nil)
		if d.Done() {
			t.Fatal("done before start")
		}
	}
	if inner.pos != 0 {
		t.Fatal("inner protocol consumed slots before start")
	}
	if a := d.Act(3); a.Kind != Broadcast {
		t.Fatalf("post-start kind %v, want Broadcast", a.Kind)
	}
	d.Observe(3, nil)
	if !d.Done() {
		t.Error("not done after inner finished")
	}
}

func TestDelayedPreStartObservationsDropped(t *testing.T) {
	inner := &scriptProto{script: []Action{{Kind: Listen, Ch: 0}}}
	d := &Delayed{Start: 2, Inner: inner}
	// A stray pre-start Observe must not reach the inner protocol.
	d.Observe(0, &Message{From: 9})
	if len(inner.heard) != 0 {
		t.Error("pre-start observation leaked to inner protocol")
	}
}

func TestDelayedZeroStartIsTransparent(t *testing.T) {
	inner := &scriptProto{script: []Action{{Kind: Idle}}}
	d := &Delayed{Start: 0, Inner: inner}
	if a := d.Act(0); a.Kind != Idle {
		t.Fatalf("kind %v", a.Kind)
	}
	d.Observe(0, nil)
	if !d.Done() {
		t.Error("zero-start Delayed did not finish with inner")
	}
}

// TestDelayedEndToEnd staggers a two-node ping exchange: the listener
// starts 5 slots late, the broadcaster transmits every slot; the
// listener must still hear the frames that fall inside its awake
// window.
func TestDelayedEndToEnd(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 1, 77)

	bScript := make([]Action, 10)
	for i := range bScript {
		bScript[i] = Action{Kind: Broadcast, Ch: 0, Data: i}
	}
	lScript := make([]Action, 3)
	for i := range lScript {
		lScript[i] = Action{Kind: Listen, Ch: 0}
	}
	b := &scriptProto{script: bScript}
	l := &scriptProto{script: lScript}
	e, err := NewEngine(nw, []Protocol{b, &Delayed{Start: 5, Inner: l}})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(20)
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if len(l.heard) != 3 {
		t.Fatalf("listener observed %d slots, want 3", len(l.heard))
	}
	for i, msg := range l.heard {
		if msg == nil {
			t.Fatalf("observation %d: nil", i)
		}
		// The listener's slot i is engine slot 5+i; the broadcaster sent
		// payload 5+i there.
		if msg.Data != 5+i {
			t.Errorf("observation %d: payload %v, want %d", i, msg.Data, 5+i)
		}
	}
}
