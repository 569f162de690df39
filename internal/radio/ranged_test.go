package radio

import (
	"fmt"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// This file locks down the range ABI: an engine whose protocols share
// a bank must produce byte-identical outcomes — stats, traces,
// per-node observations — to the same protocols behind the per-node
// adapter, across static, jammed and dynamic (churn + flap) networks.
// It also pins the detection rules and the range path's zero-alloc
// steady state.

type traceEvent struct {
	slot     int64
	listener NodeID
	ch       int32
	from     NodeID
}

func traceRecorder(dst *[]traceEvent) TraceFunc {
	return func(slot int64, listener NodeID, ch int32, msg *Message) {
		*dst = append(*dst, traceEvent{slot, listener, ch, msg.From})
	}
}

// bankedProto is randomProto with an optional bank view: the same rng
// draw order and observation bookkeeping on both dispatch modes.
type bankedProto struct {
	bank  *rangedTestBank
	idx   int
	r     *rng.Source
	c     int
	heard []NodeID
	nils  int64
}

func (p *bankedProto) Act(_ int64) Action {
	switch p.r.Intn(3) {
	case 0:
		return Action{Kind: Broadcast, Ch: p.r.Intn(p.c), Data: p.idx}
	case 1:
		return Action{Kind: Listen, Ch: p.r.Intn(p.c)}
	default:
		return Action{Kind: Idle}
	}
}

func (p *bankedProto) Observe(_ int64, msg *Message) {
	if msg == nil {
		p.observeOutcome(-1)
		return
	}
	p.observeOutcome(msg.From)
}

func (p *bankedProto) observeOutcome(from NodeID) {
	if from >= 0 {
		p.heard = append(p.heard, from)
	} else {
		p.nils++
	}
}

func (p *bankedProto) Done() bool { return false }

func (p *bankedProto) RangeBank() (RangeProtocol, int) {
	if p.bank == nil {
		return nil, 0
	}
	return p.bank, p.idx
}

func (p *bankedProto) fingerprint() string {
	return fmt.Sprintf("%v/%d;", p.heard, p.nils)
}

type rangedTestBank struct{ nodes []*bankedProto }

func (b *rangedTestBank) ActRange(slot int64, lo, hi int, acts []Action) {
	for u := lo; u < hi; u++ {
		acts[u] = b.nodes[u].Act(slot)
	}
}

func (b *rangedTestBank) ObserveRange(_ int64, lo, hi int, deliveries []Delivery) {
	for u := lo; u < hi; u++ {
		b.nodes[u].observeOutcome(deliveries[u].From)
	}
}

// mkBankedSet builds n per-node views seeded from master; banked
// attaches the shared bank (range dispatch), otherwise the views opt
// out and the engine falls back to per-node calls.
func mkBankedSet(n, c int, master *rng.Source, banked bool) ([]Protocol, []*bankedProto) {
	views := make([]*bankedProto, n)
	protos := make([]Protocol, n)
	for u := 0; u < n; u++ {
		views[u] = &bankedProto{idx: u, r: master.Split(uint64(u)), c: c}
		protos[u] = views[u]
	}
	if banked {
		bank := &rangedTestBank{nodes: views}
		for _, v := range views {
			v.bank = bank
		}
	}
	return protos, views
}

// rangedFixture is the shared network for the equivalence tests.
func rangedFixture(t *testing.T) (*graph.Graph, *chanassign.Assignment) {
	t.Helper()
	g, err := graph.GNP(24, 0.3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedPool(24, 5, 2, 14, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

// churnFlapFeed returns a deterministic scripted feed mixing node
// churn and edge flapping, fresh per run (run-scoped feed contract).
func churnFlapFeed(g *graph.Graph, seed uint64) TopologyFeed {
	n := g.N()
	edges := g.Edges()
	r := rng.New(seed)
	return &scriptFeed{steps: func(slot int64, mut TopologyMutator) {
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
	}}
}

// TestEngineRangeDispatchMatchesPerNode: for static, jammed and
// dynamic networks, a shared bank produces byte-identical stats,
// traces and per-node observations to the same protocols behind the
// per-node adapter on the same seed.
func TestEngineRangeDispatchMatchesPerNode(t *testing.T) {
	g, a := rangedFixture(t)
	const n, c, slots = 24, 5, 400
	scenarios := []struct {
		name    string
		jam     Jammer
		dynamic bool
	}{
		{"static", nil, false},
		{"jammed", parityJammer{}, false},
		{"dynamic", nil, true},
		{"jammed-dynamic", parityJammer{}, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(banked bool) (Stats, string, []traceEvent) {
				var trace []traceEvent
				nw := &Network{Graph: g, Assign: a, Jammer: sc.jam, Trace: traceRecorder(&trace)}
				if sc.dynamic {
					nw.Topology = churnFlapFeed(g, 0xFEED)
				}
				protos, views := mkBankedSet(n, c, rng.New(42), banked)
				e, err := NewEngine(nw, protos)
				if err != nil {
					t.Fatal(err)
				}
				if e.RangeDispatch() != banked {
					t.Fatalf("banked=%v but RangeDispatch=%v", banked, e.RangeDispatch())
				}
				st := e.Run(slots)
				fp := ""
				for _, v := range views {
					fp += v.fingerprint()
				}
				return st, fp, trace
			}
			wantStats, wantFP, wantTrace := run(false)
			if sc.dynamic && (wantStats.DownSlots == 0 || wantStats.EdgeAdds+wantStats.EdgeRemoves == 0) {
				t.Fatalf("dynamic scenario applied no dynamics: %+v", wantStats)
			}
			gotStats, gotFP, gotTrace := run(true)
			if gotStats != wantStats {
				t.Errorf("stats:\n bank    %+v\n adapter %+v", gotStats, wantStats)
			}
			if gotFP != wantFP {
				t.Error("per-node observations diverged")
			}
			if len(gotTrace) != len(wantTrace) {
				t.Fatalf("%d trace events from the bank, %d from the adapter", len(gotTrace), len(wantTrace))
			}
			for i := range wantTrace {
				if gotTrace[i] != wantTrace[i] {
					t.Fatalf("trace event %d: bank %+v, adapter %+v", i, gotTrace[i], wantTrace[i])
				}
			}
		})
	}
}

// TestRangeBankDetectionRules pins the opt-in rules: the protocols'
// bank is selected iff every protocol reports the same bank at its own
// index; any defect silently falls back to the per-node adapter.
func TestRangeBankDetectionRules(t *testing.T) {
	mk := func(banked bool) []Protocol {
		protos, _ := mkBankedSet(8, 3, rng.New(1), banked)
		return protos
	}
	if detectRangeBank(mk(true)) == nil {
		t.Error("uniform bank not detected")
	}
	if detectRangeBank(mk(false)) != nil {
		t.Error("nil banks selected range dispatch")
	}
	if detectRangeBank(nil) != nil {
		t.Error("empty set selected range dispatch")
	}

	// One node that is not a RangeNode at all.
	mixed := mk(true)
	mixed[3] = &randomProto{r: rng.New(2), c: 3, slots: 10}
	if detectRangeBank(mixed) != nil {
		t.Error("foreign protocol in the set selected range dispatch")
	}

	// A view at the wrong index.
	swapped := mk(true)
	swapped[2], swapped[5] = swapped[5], swapped[2]
	if detectRangeBank(swapped) != nil {
		t.Error("wrong-index view selected range dispatch")
	}

	// Two banks split over one protocol set.
	left, _ := mkBankedSet(4, 3, rng.New(3), true)
	right, _ := mkBankedSet(4, 3, rng.New(4), true)
	split := append(append([]Protocol{}, left...), right...)
	if detectRangeBank(split) != nil {
		t.Error("split banks selected range dispatch")
	}
}

// hotBankedProto is hotProto behind a bank: the zero-allocation
// workload for the range path's alloc contract.
type hotBankedProto struct {
	hotProto
	bank *hotBank
	idx  int
}

func (p *hotBankedProto) RangeBank() (RangeProtocol, int) { return p.bank, p.idx }

type hotBank struct{ nodes []*hotBankedProto }

func (b *hotBank) ActRange(slot int64, lo, hi int, acts []Action) {
	for u := lo; u < hi; u++ {
		acts[u] = b.nodes[u].Act(slot)
	}
}

func (b *hotBank) ObserveRange(_ int64, lo, hi int, deliveries []Delivery) {
	for u := lo; u < hi; u++ {
		p := b.nodes[u]
		if deliveries[u].From >= 0 {
			p.heard++
		} else {
			p.misses++
		}
		p.slot++
	}
}

// TestEngineRangeDispatchZeroAllocsPerSlot asserts the range path's
// steady state allocates nothing per slot, clear and jammed.
func TestEngineRangeDispatchZeroAllocsPerSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		jam  Jammer
	}{
		{"clear", nil},
		{"jammed", parityJammer{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, c = 24, 3
			nw := allocNetwork(t, n, c, tc.jam)
			bank := &hotBank{nodes: make([]*hotBankedProto, n)}
			protos := make([]Protocol, n)
			for u := 0; u < n; u++ {
				bank.nodes[u] = &hotBankedProto{hotProto: hotProto{id: u, c: c, frame: u}, bank: bank, idx: u}
				protos[u] = bank.nodes[u]
			}
			e, err := NewEngine(nw, protos)
			if err != nil {
				t.Fatal(err)
			}
			if !e.RangeDispatch() {
				t.Fatal("bank not detected")
			}
			target := int64(0)
			step := func() {
				target += 50
				e.Run(target)
			}
			step() // warm up scratch growth
			if avg := testing.AllocsPerRun(20, step); avg != 0 {
				t.Errorf("range path allocates %.2f/50 slots in steady state, want 0", avg)
			}
			if st := e.Stats(); st.Deliveries == 0 || st.Collisions == 0 {
				t.Fatalf("workload did not exercise delivery+collision paths: %+v", st)
			}
		})
	}
}
