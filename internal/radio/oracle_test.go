package radio_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/radio/radiotest"
	"crn/internal/rng"
)

// This file holds the suites that check the slot kernel against the
// naive neighbor-scan oracle of package radiotest: randomized action
// scripts on static, jammed and dynamic networks, through both
// dispatch paths (a shared bank and the per-node adapter), plus
// workloads that must also match a plain Engine.Run of the same seed
// (the oracle's recorders must not change what the protocols see).

// parity jams even global channels on every third slot.
type parity struct{}

func (parity) Jammed(slot int64, ch int32) bool { return ch%2 == 0 && slot%3 == 0 }

// reactiveParity is parity with an activity sink, so the oracle also
// checks the per-channel activity reports.
type reactiveParity struct{ parity }

func (*reactiveParity) ObserveActivity(int64, []int) {}

// jamSet jams a fixed set of (slot, channel) pairs.
type jamSet map[[2]int64]bool

func (j jamSet) Jammed(slot int64, ch int32) bool { return j[[2]int64{slot, int64(ch)}] }

// feedFunc is a scripted TopologyFeed.
type feedFunc func(slot int64, mut radio.TopologyMutator)

func (f feedFunc) Step(slot int64, mut radio.TopologyMutator) { f(slot, mut) }

// scripted replays a fixed action list, consumed one action per slot
// the node is stepped, and is done when the list runs out. It records
// every outcome for comparisons between runs. With a bank it is a
// view into it (range dispatch).
type scripted struct {
	acts  []radio.Action
	pos   int
	heard []radio.NodeID // sender per observed slot, -1 for nothing
	bank  *scriptBank
	idx   int
}

func (p *scripted) Act(int64) radio.Action {
	a := p.acts[p.pos]
	p.pos++
	return a
}

func (p *scripted) Observe(_ int64, msg *radio.Message) {
	if msg == nil {
		p.heard = append(p.heard, -1)
		return
	}
	p.heard = append(p.heard, msg.From)
}

func (p *scripted) Done() bool { return p.pos >= len(p.acts) }

func (p *scripted) RangeBank() (radio.RangeProtocol, int) {
	if p.bank == nil {
		return nil, 0
	}
	return p.bank, p.idx
}

type scriptBank struct{ nodes []*scripted }

func (b *scriptBank) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	for u := lo; u < hi; u++ {
		acts[u] = b.nodes[u].Act(slot)
	}
}

func (b *scriptBank) ObserveRange(_ int64, lo, hi int, deliveries []radio.Delivery) {
	for u := lo; u < hi; u++ {
		b.nodes[u].heard = append(b.nodes[u].heard, deliveries[u].From)
	}
}

// randomScripts draws n scripts of the given length: idle, listen and
// broadcast equally likely on a uniform local channel. heavy skews
// about 3/4 of all actions to Broadcast, pushing channels past the
// kernel's bitset-row threshold. Payloads are unique per (node, slot).
func randomScripts(r *rng.Source, n, c, length int, heavy bool) [][]radio.Action {
	scripts := make([][]radio.Action, n)
	for u := range scripts {
		scripts[u] = make([]radio.Action, length)
		for s := range scripts[u] {
			roll := r.Intn(3)
			if heavy && r.Intn(4) != 0 {
				roll = 2
			}
			switch roll {
			case 0:
				scripts[u][s] = radio.Action{Kind: radio.Idle}
			case 1:
				scripts[u][s] = radio.Action{Kind: radio.Listen, Ch: r.Intn(c)}
			default:
				scripts[u][s] = radio.Action{Kind: radio.Broadcast, Ch: r.Intn(c), Data: u*100000 + s}
			}
		}
	}
	return scripts
}

// scriptedSet wraps scripts as protocols, behind one shared bank when
// banked.
func scriptedSet(scripts [][]radio.Action, banked bool) ([]radio.Protocol, []*scripted) {
	nodes := make([]*scripted, len(scripts))
	protos := make([]radio.Protocol, len(scripts))
	var bank *scriptBank
	if banked {
		bank = &scriptBank{nodes: nodes}
	}
	for u, s := range scripts {
		nodes[u] = &scripted{acts: s, bank: bank, idx: u}
		protos[u] = nodes[u]
	}
	return protos, nodes
}

func fingerprint(nodes []*scripted) string {
	out := ""
	for u, p := range nodes {
		out += fmt.Sprintf("%d:%v;", u, p.heard)
	}
	return out
}

// checkOracle runs a workload under the oracle, failing on any
// disagreement, and again on a plain Engine.Run; stats and every
// node's outcome history must match. mk builds a fresh network and
// protocol set per run (feeds and reactive jammers are run-scoped).
func checkOracle(t *testing.T, mk func() (*radio.Network, []radio.Protocol, []*scripted), budget int64) radio.Stats {
	t.Helper()
	nw, protos, nodes := mk()
	got, err := radiotest.Run(nw, protos, budget)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	nw, protos, plain := mk()
	e, err := radio.NewEngine(nw, protos)
	if err != nil {
		t.Fatal(err)
	}
	if want := e.Run(budget); got != want {
		t.Fatalf("stats under the oracle %+v, plain run %+v", got, want)
	}
	if fingerprint(nodes) != fingerprint(plain) {
		t.Fatal("outcome histories under the oracle differ from a plain run")
	}
	return got
}

func identical(t testing.TB, n, c int, seed uint64) *chanassign.Assignment {
	t.Helper()
	a, err := chanassign.Identical(n, c, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// dispatchModes are the engine paths every oracle suite covers: the
// per-node adapter, a shared bank, and the adapter with a trace
// installed (which moves resolution off its steady-state loop).
var dispatchModes = []struct {
	name           string
	banked, traced bool
}{
	{"adapter", false, false},
	{"bank", true, false},
	{"traced", false, true},
}

func noTrace(int64, radio.NodeID, int32, *radio.Message) {}

// quietScripts draws scripts where a node broadcasts with probability
// 1/256 and listens otherwise, so a channel carries a handful of
// broadcasters per slot.
func quietScripts(r *rng.Source, n, c, length int) [][]radio.Action {
	scripts := make([][]radio.Action, n)
	for u := range scripts {
		scripts[u] = make([]radio.Action, length)
		for s := range scripts[u] {
			scripts[u][s] = radio.Action{Kind: radio.Listen, Ch: r.Intn(c)}
			if r.Intn(256) == 0 {
				scripts[u][s] = radio.Action{Kind: radio.Broadcast, Ch: r.Intn(c), Data: u*100000 + s}
			}
		}
	}
	return scripts
}

// wideGraph is GNP(700, 0.3) plus 20 pendant nodes, one attached to
// each of nodes 0..19. At 720 nodes the kernel only gives a channel a
// bitset row from three broadcasters on, so two-broadcaster channels
// resolve by walking the broadcaster list — or, for a pendant
// listener, its one-entry neighbor list.
func wideGraph(t *testing.T) *graph.Graph {
	t.Helper()
	r := rng.New(500)
	g := graph.New(720)
	for u := 0; u < 700; u++ {
		for v := u + 1; v < 700; v++ {
			if r.Bernoulli(0.3) {
				g.MustAddEdge(u, v)
			}
		}
	}
	for u := 700; u < 720; u++ {
		g.MustAddEdge(u, u-700)
	}
	g.Finalize()
	return g
}

// TestResolutionMatchesNaiveOracle holds whole randomized runs on
// static networks against the oracle on every dispatch path.
func TestResolutionMatchesNaiveOracle(t *testing.T) {
	cases := []struct {
		name string
		n    int
		p    float64
		c    int
		jam  func() radio.Jammer
		// heavy pushes most listener outcomes onto the kernel's
		// whole-channel AND/popcount rows instead of list walks.
		heavy bool
		// wide runs quiet traffic on wideGraph (p unused) for
		// slots slots, so contended channels resolve by list walks.
		wide  bool
		slots int
	}{
		{name: "sparse", n: 12, p: 0.2, c: 3},
		{name: "dense", n: 24, p: 0.6, c: 4},
		{name: "jammed", n: 18, p: 0.4, c: 3, jam: func() radio.Jammer { return parity{} }},
		{name: "reactive", n: 18, p: 0.4, c: 3, jam: func() radio.Jammer { return &reactiveParity{} }},
		{name: "onechannel", n: 10, p: 0.5, c: 1},
		{name: "rowheavy", n: 32, p: 0.5, c: 2, heavy: true},
		{name: "rowjammed", n: 28, p: 0.45, c: 2, jam: func() radio.Jammer { return parity{} }, heavy: true},
		{name: "wide", n: 720, c: 1, wide: true, slots: 30},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slots := 120
			var g *graph.Graph
			if tc.wide {
				slots, g = tc.slots, wideGraph(t)
			} else {
				var err error
				if g, err = graph.GNP(tc.n, tc.p, rng.New(uint64(ci)+100)); err != nil {
					t.Fatal(err)
				}
			}
			a := identical(t, tc.n, tc.c, uint64(ci)+200)
			for _, mode := range dispatchModes {
				st := checkOracle(t, func() (*radio.Network, []radio.Protocol, []*scripted) {
					nw := &radio.Network{Graph: g, Assign: a}
					if tc.jam != nil {
						nw.Jammer = tc.jam()
					}
					if mode.traced {
						nw.Trace = noTrace
					}
					r := rng.New(uint64(ci) + 300)
					scripts := randomScripts(r, tc.n, tc.c, slots, tc.heavy)
					if tc.wide {
						scripts = quietScripts(r, tc.n, tc.c, slots)
					}
					protos, nodes := scriptedSet(scripts, mode.banked)
					return nw, protos, nodes
				}, int64(slots)+1)
				if st.Slots != int64(slots) || !st.Completed {
					t.Fatalf("%s: ran %d slots (completed=%v), want %d", mode.name, st.Slots, st.Completed, slots)
				}
				if st.Deliveries == 0 || (tc.c > 1 && st.Collisions == 0) {
					t.Fatalf("%s: workload exercised too little: %+v", mode.name, st)
				}
			}
		})
	}
}

// topoEvent is one scripted topology mutation: a node up/down flip or
// an edge flap.
type topoEvent struct {
	churn bool
	a, b  int
	on    bool
}

// TestDynamicsResolutionMatchesNaiveOracle is the oracle suite's
// dynamics arm: node churn and link flapping scripted on top of
// randomized action scripts under a jammer. The oracle replays the
// same mutations on its own adjacency, so down nodes must neither
// transmit nor observe (their scripts pause), listeners resolve
// against the current topology, and partition losses against the
// base topology.
func TestDynamicsResolutionMatchesNaiveOracle(t *testing.T) {
	const n, slots, c = 20, 150, 3
	g, err := graph.GNP(n, 0.35, rng.New(400))
	if err != nil {
		t.Fatal(err)
	}
	a := identical(t, n, c, 401)

	// Events from slot 1 on (slot-0 mutations are feed reconciliation,
	// not model events); tracking the generated state makes every
	// event a genuine change.
	er := rng.New(403)
	events := make(map[int64][]topoEvent)
	up := make([]bool, n)
	for u := range up {
		up[u] = true
	}
	edges := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		edges[[2]int{int(e.U), int(e.V)}] = true
	}
	for s := int64(1); s < slots; s++ {
		if er.Intn(4) == 0 {
			u := er.Intn(n)
			up[u] = !up[u]
			events[s] = append(events[s], topoEvent{churn: true, a: u, on: up[u]})
		}
		if er.Intn(4) == 0 {
			ea, eb := er.Intn(n), er.Intn(n)
			if ea > eb {
				ea, eb = eb, ea
			}
			if ea != eb {
				k := [2]int{ea, eb}
				edges[k] = !edges[k]
				events[s] = append(events[s], topoEvent{a: ea, b: eb, on: edges[k]})
			}
		}
	}
	feed := func() radio.TopologyFeed {
		return feedFunc(func(slot int64, mut radio.TopologyMutator) {
			for _, ev := range events[slot] {
				switch {
				case ev.churn:
					mut.SetNodeUp(ev.a, ev.on)
				case ev.on:
					mut.AddEdge(ev.a, ev.b)
				default:
					mut.RemoveEdge(ev.a, ev.b)
				}
			}
		})
	}
	for _, mode := range dispatchModes {
		st := checkOracle(t, func() (*radio.Network, []radio.Protocol, []*scripted) {
			nw := &radio.Network{Graph: g, Assign: a, Jammer: parity{}, Topology: feed()}
			if mode.traced {
				nw.Trace = noTrace
			}
			protos, nodes := scriptedSet(randomScripts(rng.New(402), n, c, slots, false), mode.banked)
			return nw, protos, nodes
		}, slots)
		if st.NodeJoins+st.NodeLeaves < 10 || st.EdgeAdds+st.EdgeRemoves < 10 || st.PartitionLosses == 0 {
			t.Fatalf("%s: event script too thin: %+v", mode.name, st)
		}
	}
}

// randomWorkload is the random-chatter workload: GNP(20, 0.3) on a
// shared channel pool, 200-slot scripts.
func randomWorkload(t *testing.T) func() (*radio.Network, []radio.Protocol, []*scripted) {
	g, err := graph.GNP(20, 0.3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedPool(20, 5, 2, 12, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	return func() (*radio.Network, []radio.Protocol, []*scripted) {
		protos, nodes := scriptedSet(randomScripts(rng.New(42), 20, 5, 200, false), false)
		return &radio.Network{Graph: g, Assign: a}, protos, nodes
	}
}

// TestParallelMatchesSequential: the random-chatter workload agrees
// with the oracle and with a plain Engine.Run, stats and every node's
// observation history.
func TestParallelMatchesSequential(t *testing.T) {
	if st := checkOracle(t, randomWorkload(t), 10000); !st.Completed || st.Deliveries == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
}

// TestJammingParallelEngineAgrees: scripted traffic on a star under a
// fixed (slot, channel) jam set agrees with the oracle and a plain run.
func TestJammingParallelEngineAgrees(t *testing.T) {
	g := graph.Star(8)
	a := identical(t, 8, 3, 33)
	st := checkOracle(t, func() (*radio.Network, []radio.Protocol, []*scripted) {
		scripts := make([][]radio.Action, 8)
		for i := range scripts {
			scripts[i] = make([]radio.Action, 12)
			for s := range scripts[i] {
				if i%2 == 0 {
					scripts[i][s] = radio.Action{Kind: radio.Listen, Ch: (i + s) % 3}
				} else {
					scripts[i][s] = radio.Action{Kind: radio.Broadcast, Ch: (i + s) % 3, Data: i}
				}
			}
		}
		protos, nodes := scriptedSet(scripts, false)
		jam := jamSet{{0, 0}: true, {1, 1}: true, {2, 2}: true, {5, 0}: true}
		return &radio.Network{Graph: g, Assign: a, Jammer: jam}, protos, nodes
	}, 100)
	if st.JammedListens == 0 {
		t.Fatalf("jam set hit no listener: %+v", st)
	}
}

// TestDelayedParallelMatchesSequential: staggered-start protocols (one
// Delayed wrapper per node, starts spread across the run) agree with
// the oracle and a plain run; pre-start slots are engine idles.
func TestDelayedParallelMatchesSequential(t *testing.T) {
	const n, c, slots = 24, 3, 600
	g, err := graph.GNP(n, 0.3, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	a := identical(t, n, c, 99)
	st := checkOracle(t, func() (*radio.Network, []radio.Protocol, []*scripted) {
		_, nodes := scriptedSet(randomScripts(rng.New(8), n, c, slots, false), false)
		protos := make([]radio.Protocol, n)
		for u, p := range nodes {
			// Stagger starts 0, 7, 14, ... so some nodes wake mid-run.
			protos[u] = &radio.Delayed{Start: int64(u * 7), Inner: p}
		}
		return &radio.Network{Graph: g, Assign: a}, protos, nodes
	}, slots)
	if st.Deliveries == 0 || st.Idles == 0 {
		t.Fatalf("staggered workload degenerate: %+v", st)
	}
}

// TestDelayedFiniteParallelCompletion: Delayed wrappers around finite
// scripts complete under the oracle exactly when the last starter
// finishes (a never-started Delayed must not report done).
func TestDelayedFiniteParallelCompletion(t *testing.T) {
	const n = 8
	g := graph.Path(n)
	a := identical(t, n, 1, 5)
	mk := func() (*radio.Network, []radio.Protocol, []*scripted) {
		scripts := make([][]radio.Action, n)
		for u := range scripts {
			scripts[u] = make([]radio.Action, 4)
			for i := range scripts[u] {
				if u%2 == 0 {
					scripts[u][i] = radio.Action{Kind: radio.Broadcast, Ch: 0, Data: u}
				} else {
					scripts[u][i] = radio.Action{Kind: radio.Listen, Ch: 0}
				}
			}
		}
		_, nodes := scriptedSet(scripts, false)
		protos := make([]radio.Protocol, n)
		for u, p := range nodes {
			protos[u] = &radio.Delayed{Start: int64(3 * u), Inner: p}
		}
		return &radio.Network{Graph: g, Assign: a}, protos, nodes
	}
	budget := int64(3*(n-1) + 4 + 1)
	if st := checkOracle(t, mk, budget); !st.Completed {
		t.Errorf("staggered finite run did not complete in %d slots: %+v", budget, st)
	}
	if st := checkOracle(t, mk, int64(3*(n-1)+1)); st.Completed {
		t.Error("run completed before the last delayed starter could finish")
	}
}

// TestQuickEngineEquivalence fuzzes random networks, assignments and
// scripts (with staggered lifetimes, so the kernel's run-splitting
// path runs once nodes finish) against the oracle and a plain run.
func TestQuickEngineEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := graph.GNP(12, 0.35, rng.New(seed))
		if err != nil {
			return true // disconnected sample, skipped
		}
		a, err := chanassign.SharedPool(12, 4, 1, 8, rng.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, func() (*radio.Network, []radio.Protocol, []*scripted) {
			scripts := randomScripts(rng.New(seed+2), 12, 4, 60, false)
			for u := range scripts {
				scripts[u] = scripts[u][:30+2*u]
			}
			protos, nodes := scriptedSet(scripts, seed%2 == 0)
			return &radio.Network{Graph: g, Assign: a}, protos, nodes
		}, 1000)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// churnFlapFeed returns a deterministic pseudo-random feed flipping a
// node up/down with probability 0.1 and flapping a base edge with
// probability 0.2 per slot, fresh per run.
func churnFlapFeed(g *graph.Graph, seed uint64) radio.TopologyFeed {
	n, edges, r := g.N(), g.Edges(), rng.New(seed)
	return feedFunc(func(_ int64, mut radio.TopologyMutator) {
		u := r.Intn(n)
		if r.Bernoulli(0.1) {
			mut.SetNodeUp(u, !mut.NodeUp(u))
		}
		e := edges[r.Intn(len(edges))]
		if r.Bernoulli(0.2) {
			if mut.HasEdge(int(e.U), int(e.V)) {
				mut.RemoveEdge(int(e.U), int(e.V))
			} else {
				mut.AddEdge(int(e.U), int(e.V))
			}
		}
	})
}

// TestTopologyFeedCrossEngineEquivalence: a feed mixing churn and edge
// flapping, queried through NodeUp/HasEdge, agrees with the oracle and
// a plain run on both dispatch paths.
func TestTopologyFeedCrossEngineEquivalence(t *testing.T) {
	const n, c, slots = 16, 3, 400
	g, err := graph.GNP(n, 0.35, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	a := identical(t, n, c, 6)
	for _, banked := range []bool{false, true} {
		st := checkOracle(t, func() (*radio.Network, []radio.Protocol, []*scripted) {
			protos, nodes := scriptedSet(randomScripts(rng.New(9), n, c, slots, false), banked)
			return &radio.Network{Graph: g, Assign: a, Topology: churnFlapFeed(g, 77)}, protos, nodes
		}, slots)
		if st.EdgeAdds+st.EdgeRemoves == 0 || st.DownSlots == 0 {
			t.Fatalf("feed applied no dynamics: %+v", st)
		}
	}
}

// FuzzEngineMatchesOracle is the differential fuzz: the fuzzer picks
// the graph size and density, the channel count, the action scripts
// (one byte per node-slot), the jammer (none, parity, reactive
// parity), the dispatch path and tracing, and a churn/flap event
// script (four bytes per event: slot, op, u, v). The engine must agree
// with the oracle on every input.
func FuzzEngineMatchesOracle(f *testing.F) {
	f.Add(uint8(6), uint8(128), uint8(2), uint8(0), false, false, []byte("scripted actions"), []byte{})
	f.Add(uint8(12), uint8(200), uint8(1), uint8(1), true, false, []byte{0, 1, 2, 5, 8, 2, 2, 2}, []byte{1, 0, 3, 0, 2, 1, 0, 1})
	f.Add(uint8(20), uint8(90), uint8(3), uint8(2), false, true, []byte{2, 2, 2, 1, 4, 7}, []byte{0, 0, 1, 0, 3, 2, 4, 5, 5, 1, 2, 3})
	f.Fuzz(func(t *testing.T, n, density, c, jam uint8, banked, traced bool, acts, events []byte) {
		const slots = 48
		nn, cc := 2+int(n)%30, 1+int(c)%4
		r := rng.New(uint64(n)<<16 | uint64(density)<<8 | uint64(c))
		g := graph.New(nn)
		for u := 0; u < nn; u++ {
			for v := u + 1; v < nn; v++ {
				if r.Intn(255) < int(density) {
					g.MustAddEdge(u, v)
				}
			}
		}
		g.Finalize()
		a, err := chanassign.Identical(nn, cc, r)
		if err != nil {
			t.Fatal(err)
		}
		scripts := make([][]radio.Action, nn)
		for u := range scripts {
			scripts[u] = make([]radio.Action, slots)
			for s := range scripts[u] {
				var b int
				if len(acts) > 0 {
					b = int(acts[(s*nn+u)%len(acts)]) + s + u
				}
				switch b % 3 {
				case 0:
					scripts[u][s] = radio.Action{Kind: radio.Idle}
				case 1:
					scripts[u][s] = radio.Action{Kind: radio.Listen, Ch: (b / 3) % cc}
				default:
					scripts[u][s] = radio.Action{Kind: radio.Broadcast, Ch: (b / 3) % cc, Data: u*1000 + s}
				}
			}
		}
		protos, _ := scriptedSet(scripts, banked)
		nw := &radio.Network{Graph: g, Assign: a}
		switch jam % 3 {
		case 1:
			nw.Jammer = parity{}
		case 2:
			nw.Jammer = &reactiveParity{}
		}
		if traced {
			nw.Trace = noTrace
		}
		if len(events) >= 4 {
			nw.Topology = feedFunc(func(slot int64, mut radio.TopologyMutator) {
				for i := 0; i+4 <= len(events); i += 4 {
					ev := events[i : i+4]
					if int64(ev[0])%slots != slot {
						continue
					}
					u, v := int(ev[2])%nn, int(ev[3])%nn
					switch ev[1] % 3 {
					case 0:
						mut.SetNodeUp(u, !mut.NodeUp(u))
					case 1:
						mut.AddEdge(u, v)
					default:
						mut.RemoveEdge(u, v)
					}
				}
			})
		}
		if _, err := radiotest.Run(nw, protos, slots+1); err != nil {
			t.Fatal(err)
		}
	})
}
