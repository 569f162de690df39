package radio

import (
	"context"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// This file locks down the channel-indexed resolution fast paths
// against the model definition: a listener hears a frame iff exactly
// one *neighbor* broadcasts on its channel. Each fast path (empty
// channel, sole talker adjacent, sole talker non-adjacent, contended
// channel, jammed channel) gets a deterministic unit test;
// oracle_test.go compares whole randomized runs against the naive
// neighbor-scan oracle of package radiotest.

// parityJammer jams even global channels on every third slot.
type parityJammer struct{}

func (parityJammer) Jammed(slot int64, ch int32) bool {
	return ch%2 == 0 && slot%3 == 0
}

// fastPathNet builds a 5-node network: star 0-(1,2,3,4) plus edge 1-2,
// with all nodes sharing all channels (identity-permuted labels).
func fastPathNet(t *testing.T, c int) *Network {
	t.Helper()
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(0, v)
	}
	g.MustAddEdge(1, 2)
	g.Finalize()
	return newTestNetwork(t, g, c, 77)
}

func runOneSlot(t *testing.T, nw *Network, actions []Action) ([]*Message, Stats) {
	t.Helper()
	protos := make([]Protocol, len(actions))
	sps := make([]*scriptProto, len(actions))
	for i := range actions {
		sp := &scriptProto{script: []Action{actions[i]}}
		sps[i] = sp
		protos[i] = sp
	}
	e, err := NewEngine(nw, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(1)
	heard := make([]*Message, len(actions))
	for i, sp := range sps {
		if len(sp.heard) != 1 {
			t.Fatalf("node %d observed %d times, want 1", i, len(sp.heard))
		}
		heard[i] = sp.heard[0]
	}
	return heard, st
}

func TestResolveEmptyChannel(t *testing.T) {
	nw := fastPathNet(t, 2)
	// Node 3 listens on global channel 1; the only broadcaster (node 4)
	// is on global channel 0.
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Listen, Ch: localFor(t, nw, 3, 1)},
		{Kind: Broadcast, Ch: localFor(t, nw, 4, 0), Data: "x"},
	})
	if heard[3] != nil {
		t.Errorf("listener on empty channel heard %+v, want silence", heard[3])
	}
	if st.Deliveries != 0 || st.Collisions != 0 {
		t.Errorf("stats %+v, want no deliveries/collisions", st)
	}
}

func TestResolveSoleTalkerAdjacent(t *testing.T) {
	nw := fastPathNet(t, 2)
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Listen, Ch: localFor(t, nw, 0, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 1, 0), Data: "hi"},
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Idle},
	})
	if heard[0] == nil || heard[0].From != 1 || heard[0].Data != "hi" {
		t.Errorf("heard %+v, want From=1 Data=hi", heard[0])
	}
	if st.Deliveries != 1 {
		t.Errorf("Deliveries = %d, want 1", st.Deliveries)
	}
}

func TestResolveSoleTalkerNonAdjacent(t *testing.T) {
	nw := fastPathNet(t, 2)
	// Nodes 3 and 4 are both leaves: not adjacent. 4 is the channel's
	// only broadcaster anywhere, so the index count is 1, but the
	// adjacency probe must still reject the delivery.
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Listen, Ch: localFor(t, nw, 3, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 4, 0), Data: "x"},
	})
	if heard[3] != nil {
		t.Errorf("non-neighbor delivery: heard %+v, want silence", heard[3])
	}
	if st.Deliveries != 0 {
		t.Errorf("Deliveries = %d, want 0", st.Deliveries)
	}
}

func TestResolveContendedChannel(t *testing.T) {
	nw := fastPathNet(t, 2)
	// Three broadcasters on one channel. The center (0) has all three
	// as neighbors -> collision. Node 3 listens too but is adjacent to
	// none of the broadcasters... make node 1, 2, 4 broadcast: center
	// sees 3 talkers (collision); a listener adjacent to exactly one of
	// them would still hear. Use node 3: adjacent only to 0 -> silence.
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Listen, Ch: localFor(t, nw, 0, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 1, 0), Data: 1},
		{Kind: Broadcast, Ch: localFor(t, nw, 2, 0), Data: 2},
		{Kind: Listen, Ch: localFor(t, nw, 3, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 4, 0), Data: 4},
	})
	if heard[0] != nil {
		t.Errorf("center heard %+v through a 3-way collision", heard[0])
	}
	if heard[3] != nil {
		t.Errorf("leaf heard %+v with no broadcasting neighbor", heard[3])
	}
	if st.Collisions != 1 || st.Deliveries != 0 {
		t.Errorf("stats %+v, want 1 collision 0 deliveries", st)
	}
}

func TestResolveContendedChannelPartialAdjacency(t *testing.T) {
	nw := fastPathNet(t, 2)
	// Nodes 2 and 3 broadcast on the same channel; node 1 is adjacent
	// to 2 (edge 1-2) but not to 3, so despite global contention node 1
	// hears node 2 cleanly.
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Idle},
		{Kind: Listen, Ch: localFor(t, nw, 1, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 2, 0), Data: "from2"},
		{Kind: Broadcast, Ch: localFor(t, nw, 3, 0), Data: "from3"},
		{Kind: Idle},
	})
	if heard[1] == nil || heard[1].From != 2 || heard[1].Data != "from2" {
		t.Errorf("heard %+v, want From=2 Data=from2", heard[1])
	}
	if st.Deliveries != 1 {
		t.Errorf("Deliveries = %d, want 1", st.Deliveries)
	}
}

func TestResolveJammedChannel(t *testing.T) {
	nw := fastPathNet(t, 2)
	nw.Jammer = parityJammer{}
	// Slot 0: even channels jammed. A clean single-broadcaster setup on
	// global channel 0 must be lost; the same setup on channel 1 heard
	// (listener 1 is adjacent to broadcaster 2 via the 1-2 edge).
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Listen, Ch: localFor(t, nw, 0, 0)},
		{Kind: Listen, Ch: localFor(t, nw, 1, 1)},
		{Kind: Broadcast, Ch: localFor(t, nw, 2, 1), Data: "heard"},
		{Kind: Idle},
		{Kind: Broadcast, Ch: localFor(t, nw, 4, 0), Data: "lost"},
	})
	if heard[0] != nil {
		t.Errorf("jammed listener heard %+v, want silence", heard[0])
	}
	if heard[1] == nil || heard[1].Data != "heard" {
		t.Errorf("clear-channel listener heard %+v, want From=2", heard[1])
	}
	if st.JammedListens != 1 || st.Deliveries != 1 {
		t.Errorf("stats %+v, want 1 jammed listen and 1 delivery", st)
	}
}

// TestResolveBinarySearchPathHugeGraph drives the engine on a graph
// above the dense-matrix node cap, exercising the sorted-adjacency
// binary-search fallback in the resolution fast paths.
func TestResolveBinarySearchPathHugeGraph(t *testing.T) {
	n := 8200 // > maxMatrixNodes in internal/graph
	g := graph.Path(n)
	if g.NeighborMatrix() != nil {
		t.Fatal("expected no dense matrix above the node cap")
	}
	a, err := chanassign.Identical(n, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]Protocol, n)
	sps := make([]*scriptProto, n)
	for u := 0; u < n; u++ {
		// Even nodes broadcast, odd nodes listen: every odd listener has
		// two broadcasting neighbors (collision), except node n-1 if n
		// is even (sole neighbor n-2 -> delivery).
		var act Action
		if u%2 == 0 {
			act = Action{Kind: Broadcast, Ch: 0, Data: u}
		} else {
			act = Action{Kind: Listen, Ch: 0}
		}
		sp := &scriptProto{script: []Action{act}}
		sps[u] = sp
		protos[u] = sp
	}
	e, err := NewEngine(&Network{Graph: g, Assign: a}, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(1)
	wantCollisions := int64(n/2 - 1)
	wantDeliveries := int64(1)
	if st.Collisions != wantCollisions || st.Deliveries != wantDeliveries {
		t.Errorf("stats %+v, want %d collisions %d deliveries", st, wantCollisions, wantDeliveries)
	}
	last := sps[n-1]
	if len(last.heard) != 1 || last.heard[0] == nil || last.heard[0].From != NodeID(n-2) {
		t.Errorf("tail listener heard %+v, want From=%d", last.heard, n-2)
	}
}

// TestRunUntilCtxCancellation covers the engine's cancellation path: a
// cancelled context stops the run promptly with ctx.Err() and partial
// stats.
func TestRunUntilCtxCancellation(t *testing.T) {
	g, err := graph.GNP(16, 0.3, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.Identical(16, 3, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	master := rng.New(5)
	protos := make([]Protocol, 16)
	for i := range protos {
		protos[i] = &randomProto{r: master.Split(uint64(i)), c: 3, slots: 1 << 30}
	}
	e, err := NewEngine(&Network{Graph: g, Assign: a}, protos)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := e.RunUntilCtx(ctx, 1<<20, nil)
	if err == nil {
		t.Fatal("cancelled RunUntilCtx returned nil error")
	}
	if st.Completed {
		t.Error("cancelled run reported Completed")
	}
	if st.Slots != 0 {
		t.Errorf("pre-cancelled run executed %d slots, want 0", st.Slots)
	}
}
