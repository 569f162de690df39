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
// channel, jammed channel) gets a deterministic unit test, and a
// randomized test compares whole runs against a naive per-listener
// neighbor-scan oracle computed independently from the action scripts.

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

// TestResolutionMatchesNaiveOracle compares whole engine runs against
// an oracle that recomputes every listener outcome with the naive
// O(Δ) neighbor scan the engine used before the channel index —
// independently, from the raw action scripts.
func TestResolutionMatchesNaiveOracle(t *testing.T) {
	const slots = 120
	cases := []struct {
		name string
		n    int
		p    float64
		c    int
		jam  Jammer
		// heavy skews ~3/4 of all actions to Broadcast over few
		// channels, pushing every slot's per-channel broadcaster count
		// past the bitset-row threshold so the whole-channel
		// AND/popcount resolution path — not the list walks — decides
		// most listener outcomes.
		heavy bool
	}{
		{name: "sparse", n: 12, p: 0.2, c: 3},
		{name: "dense", n: 24, p: 0.6, c: 4},
		{name: "jammed", n: 18, p: 0.4, c: 3, jam: parityJammer{}},
		{name: "onechannel", n: 10, p: 0.5, c: 1},
		{name: "rowheavy", n: 32, p: 0.5, c: 2, heavy: true},
		{name: "rowjammed", n: 28, p: 0.45, c: 2, jam: parityJammer{}, heavy: true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := graph.GNP(tc.n, tc.p, rng.New(uint64(ci)+100))
			if err != nil {
				t.Fatal(err)
			}
			a, err := chanassign.Identical(tc.n, tc.c, rng.New(uint64(ci)+200))
			if err != nil {
				t.Fatal(err)
			}
			// Scripts: deterministic random action per (node, slot).
			r := rng.New(uint64(ci) + 300)
			scripts := make([][]Action, tc.n)
			for u := range scripts {
				scripts[u] = make([]Action, slots)
				for s := range scripts[u] {
					roll := r.Intn(3)
					if tc.heavy && r.Intn(4) != 0 {
						roll = 2
					}
					switch roll {
					case 0:
						scripts[u][s] = Action{Kind: Idle}
					case 1:
						scripts[u][s] = Action{Kind: Listen, Ch: r.Intn(tc.c)}
					default:
						scripts[u][s] = Action{Kind: Broadcast, Ch: r.Intn(tc.c), Data: u*1000 + s}
					}
				}
			}
			nw := &Network{Graph: g, Assign: a, Jammer: tc.jam}
			protos := make([]Protocol, tc.n)
			sps := make([]*scriptProto, tc.n)
			for u := range protos {
				sp := &scriptProto{script: scripts[u]}
				sps[u] = sp
				protos[u] = sp
			}
			e, err := NewEngine(nw, protos)
			if err != nil {
				t.Fatal(err)
			}
			st := e.Run(slots + 1)
			if st.Slots != slots {
				t.Fatalf("ran %d slots, want %d", st.Slots, slots)
			}

			// Oracle: naive neighbor scan per listener per slot.
			var oracleStats Stats
			for s := 0; s < slots; s++ {
				for u := 0; u < tc.n; u++ {
					act := scripts[u][s]
					var want *Message
					switch act.Kind {
					case Idle:
						oracleStats.Idles++
					case Broadcast:
						oracleStats.Broadcasts++
					case Listen:
						oracleStats.Listens++
						ch := a.Global(u, act.Ch)
						if tc.jam != nil && tc.jam.Jammed(int64(s), ch) {
							oracleStats.JammedListens++
							break
						}
						talkers := 0
						for _, v := range g.Neighbors(u) {
							va := scripts[v][s]
							if va.Kind == Broadcast && a.Global(int(v), va.Ch) == ch {
								talkers++
								if talkers == 1 {
									want = &Message{From: NodeID(v), Data: va.Data}
								}
							}
						}
						switch {
						case talkers == 1:
							oracleStats.Deliveries++
						case talkers > 1:
							oracleStats.Collisions++
							want = nil
						}
					}
					got := sps[u].heard[s]
					if (got == nil) != (want == nil) {
						t.Fatalf("slot %d node %d: got %+v, oracle %+v", s, u, got, want)
					}
					if got != nil && (got.From != want.From || got.Data != want.Data) {
						t.Fatalf("slot %d node %d: got %+v, oracle %+v", s, u, got, want)
					}
				}
			}
			oracleStats.Slots = slots
			oracleStats.Completed = st.Completed
			if st != oracleStats {
				t.Errorf("stats %+v, oracle %+v", st, oracleStats)
			}
		})
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

// topoEvent is one scripted topology mutation: a node up/down flip or
// an edge flap. Events are pre-generated against a tracked model so
// every event is a real state change (the mutator must return true).
type topoEvent struct {
	churn bool
	a, b  int
	on    bool
}

// TestDynamicsResolutionMatchesNaiveOracle is the oracle suite's
// dynamics arm: node churn and link flapping are scripted on top of
// randomized action scripts, and an independent naive model replays
// the same events — down nodes neither transmit nor observe (their
// protocol clocks pause), listeners resolve against the *current*
// adjacency, and the partition-loss counterfactual resolves the same
// broadcaster set against the untouched base adjacency. Every heard
// message, plus the full Stats including the churn/flap/loss counters,
// must match.
func TestDynamicsResolutionMatchesNaiveOracle(t *testing.T) {
	const (
		n     = 20
		slots = 150
		c     = 3
	)
	g, err := graph.GNP(n, 0.35, rng.New(400))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.Identical(n, c, rng.New(401))
	if err != nil {
		t.Fatal(err)
	}

	// Action scripts, same distribution as the static oracle. A node's
	// script is consumed only while it is up.
	r := rng.New(402)
	scripts := make([][]Action, n)
	for u := range scripts {
		scripts[u] = make([]Action, slots)
		for s := range scripts[u] {
			switch r.Intn(3) {
			case 0:
				scripts[u][s] = Action{Kind: Idle}
			case 1:
				scripts[u][s] = Action{Kind: Listen, Ch: r.Intn(c)}
			default:
				scripts[u][s] = Action{Kind: Broadcast, Ch: r.Intn(c), Data: u*1000 + s}
			}
		}
	}

	// Scripted topology events from slot 1 on (slot-0 mutations are
	// feed reconciliation, not model events). Tracking up/edges during
	// generation guarantees each event is a genuine change.
	edgeKey := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	baseEdges := make(map[[2]int]bool)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			baseEdges[edgeKey(u, int(v))] = true
		}
	}
	er := rng.New(403)
	events := make(map[int64][]topoEvent)
	genUp := make([]bool, n)
	genEdges := make(map[[2]int]bool, len(baseEdges))
	for k := range baseEdges {
		genEdges[k] = true
	}
	for u := range genUp {
		genUp[u] = true
	}
	churned, flapped := 0, 0
	for s := int64(1); s < slots; s++ {
		if er.Intn(4) == 0 {
			u := er.Intn(n)
			genUp[u] = !genUp[u]
			events[s] = append(events[s], topoEvent{churn: true, a: u, on: genUp[u]})
			churned++
		}
		if er.Intn(4) == 0 {
			ea, eb := er.Intn(n), er.Intn(n)
			if ea != eb {
				k := edgeKey(ea, eb)
				genEdges[k] = !genEdges[k]
				events[s] = append(events[s], topoEvent{a: k[0], b: k[1], on: genEdges[k]})
				flapped++
			}
		}
	}
	if churned < 10 || flapped < 10 {
		t.Fatalf("event script too thin: %d churn, %d flap events", churned, flapped)
	}

	feed := &scriptFeed{steps: func(slot int64, mut TopologyMutator) {
		for _, ev := range events[slot] {
			var changed bool
			switch {
			case ev.churn:
				changed = mut.SetNodeUp(ev.a, ev.on)
			case ev.on:
				changed = mut.AddEdge(ev.a, ev.b)
			default:
				changed = mut.RemoveEdge(ev.a, ev.b)
			}
			if !changed {
				t.Fatalf("slot %d: event %+v was a no-op", slot, ev)
			}
		}
	}}

	protos := make([]Protocol, n)
	sps := make([]*scriptProto, n)
	for u := range protos {
		sp := &scriptProto{script: scripts[u]}
		sps[u] = sp
		protos[u] = sp
	}
	e, err := NewEngine(&Network{Graph: g, Assign: a, Jammer: parityJammer{}, Topology: feed}, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(slots)

	// Oracle replay: same events, naive resolution.
	up := make([]bool, n)
	for u := range up {
		up[u] = true
	}
	curEdges := make(map[[2]int]bool, len(baseEdges))
	for k := range baseEdges {
		curEdges[k] = true
	}
	pos := make([]int, n)
	acts := make([]Action, n)
	expHeard := make([][]*Message, n)
	var jam Jammer = parityJammer{}
	var o Stats
	for s := int64(0); s < slots; s++ {
		for _, ev := range events[s] {
			switch {
			case ev.churn && ev.on:
				o.NodeJoins++
				up[ev.a] = true
			case ev.churn:
				o.NodeLeaves++
				up[ev.a] = false
			case ev.on:
				o.EdgeAdds++
				curEdges[edgeKey(ev.a, ev.b)] = true
			default:
				o.EdgeRemoves++
				curEdges[edgeKey(ev.a, ev.b)] = false
			}
		}
		for u := 0; u < n; u++ {
			if !up[u] {
				o.DownSlots++
				continue
			}
			acts[u] = scripts[u][pos[u]]
			pos[u]++
		}
		for u := 0; u < n; u++ {
			if !up[u] {
				continue
			}
			act := acts[u]
			switch act.Kind {
			case Idle:
				o.Idles++
				expHeard[u] = append(expHeard[u], nil)
			case Broadcast:
				o.Broadcasts++
				expHeard[u] = append(expHeard[u], nil)
			case Listen:
				o.Listens++
				ch := a.Global(u, act.Ch)
				if jam.Jammed(s, ch) {
					o.JammedListens++
					expHeard[u] = append(expHeard[u], nil)
					continue
				}
				talkers, baseTalkers := 0, 0
				var from, baseFrom *Message
				for v := 0; v < n; v++ {
					if v == u || !up[v] || acts[v].Kind != Broadcast || a.Global(v, acts[v].Ch) != ch {
						continue
					}
					if curEdges[edgeKey(u, v)] {
						talkers++
						if talkers == 1 {
							from = &Message{From: NodeID(v), Data: acts[v].Data}
						}
					}
					if baseEdges[edgeKey(u, v)] {
						baseTalkers++
						if baseTalkers == 1 {
							baseFrom = &Message{From: NodeID(v), Data: acts[v].Data}
						}
					}
				}
				if baseTalkers == 1 && (talkers != 1 || from.From != baseFrom.From) {
					o.PartitionLosses++
				}
				switch {
				case talkers == 1:
					o.Deliveries++
					expHeard[u] = append(expHeard[u], from)
				case talkers > 1:
					o.Collisions++
					expHeard[u] = append(expHeard[u], nil)
				default:
					expHeard[u] = append(expHeard[u], nil)
				}
			}
		}
	}
	o.Slots = slots
	o.Completed = st.Completed

	if st != o {
		t.Errorf("stats:\n engine %+v\n oracle %+v", st, o)
	}
	for u := 0; u < n; u++ {
		if len(sps[u].heard) != len(expHeard[u]) {
			t.Fatalf("node %d observed %d times, oracle %d (clock must pause while down)",
				u, len(sps[u].heard), len(expHeard[u]))
		}
		for i := range expHeard[u] {
			got, want := sps[u].heard[i], expHeard[u][i]
			if (got == nil) != (want == nil) {
				t.Fatalf("node %d observe %d: got %+v, oracle %+v", u, i, got, want)
			}
			if got != nil && (got.From != want.From || got.Data != want.Data) {
				t.Fatalf("node %d observe %d: got %+v, oracle %+v", u, i, got, want)
			}
		}
	}
}
