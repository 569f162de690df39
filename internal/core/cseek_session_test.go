package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/dynamics"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
	"crn/internal/spectrum"
)

// CSEEK session golden: the per-node end state of CSEEK/CKSEEK runs
// (first-heard records, COUNT densities, the slot each node finished
// in and a digest of its channel log) for a fixed set of networks and
// seeds, committed in testdata/cseek_sessions.json. Every case runs
// under three dispatch modes — unmerged per-node machines, a merged
// bank stepped per node, and a merged bank on range dispatch — and all
// three must match the file. Any change to a node's RNG draw order,
// its step schedule or its observation rules shows up as a diff.
// Regenerate deliberately with:
//
//	go test ./internal/core -run TestCSeekSessionGolden -update
const cseekGoldenFile = "testdata/cseek_sessions.json"

// cseekNodeGolden is one node's recorded end state. Heard lists
// (id, first-heard local slot) pairs in ascending id order; DoneAt is
// the engine slot count after which Done first held (-1 never);
// Channels is an FNV-64a digest of ChannelAt(0..TotalSlots-1).
type cseekNodeGolden struct {
	Heard      [][2]int64 `json:"heard"`
	Counts     []int64    `json:"counts"`
	Discovered int        `json:"discovered"`
	DoneAt     int64      `json:"doneAt"`
	Channels   string     `json:"channels"`
}

type cseekGolden struct {
	Name       string            `json:"name"`
	TotalSlots int64             `json:"totalSlots"`
	Nodes      []cseekNodeGolden `json:"nodes"`
}

// cseekCase is one golden network. A nonzero khat selects CKSEEK with
// k̂ = kmax and Δ_k̂ = Δ; jammer and feed build fresh run-scoped
// instances (nil means clear spectrum / static topology).
type cseekCase struct {
	name   string
	seed   uint64
	khat   int
	tuning Tuning
	build  func() (*graph.Graph, *chanassign.Assignment, error)
	jammer func(a *chanassign.Assignment) (radio.Jammer, error)
	feed   func(g *graph.Graph) (radio.TopologyFeed, error)
	// budget is the slot budget as a multiple of TotalSlots: 1 on
	// static runs, more under churn so frozen nodes can finish.
	budget int64
}

func cseekCases() []cseekCase {
	shared := func(g *graph.Graph, err error, c, k int, seed uint64) (*graph.Graph, *chanassign.Assignment, error) {
		if err != nil {
			return nil, nil, err
		}
		a, err := chanassign.SharedCore(g.N(), c, k, rng.New(seed))
		return g, a, err
	}
	gnp16 := func() (*graph.Graph, *chanassign.Assignment, error) {
		g, err := graph.GNP(16, 0.3, rng.New(201))
		if err != nil {
			return nil, nil, err
		}
		a, err := chanassign.Heterogeneous(g, 6, 2, 4, 0.4, rng.New(202))
		return g, a, err
	}
	topologies := []struct {
		name  string
		build func() (*graph.Graph, *chanassign.Assignment, error)
	}{
		{"gnp16", gnp16},
		{"chain32", func() (*graph.Graph, *chanassign.Assignment, error) {
			g, err := graph.ClusterChain(8, 4)
			return shared(g, err, 4, 2, 203)
		}},
		{"unitdisk32", func() (*graph.Graph, *chanassign.Assignment, error) {
			g, err := graph.UnitDisk(32, 0.35, rng.New(204))
			return shared(g, err, 4, 2, 205)
		}},
		{"star9", func() (*graph.Graph, *chanassign.Assignment, error) {
			return shared(graph.Star(9), nil, 3, 1, 206)
		}},
	}
	var out []cseekCase
	for _, tp := range topologies {
		for _, seed := range []uint64{1, 2, 3} {
			out = append(out, cseekCase{
				name: fmt.Sprintf("cseek/%s/seed%d", tp.name, seed),
				seed: seed, build: tp.build, budget: 1,
			})
		}
	}
	out = append(out, cseekCase{name: "ckseek/gnp16/seed1", seed: 1, khat: -1, build: gnp16, budget: 1})
	out = append(out, cseekCase{
		name: "cseek/gnp16/markov/seed1", seed: 1, build: gnp16, budget: 1,
		jammer: func(a *chanassign.Assignment) (radio.Jammer, error) {
			return spectrum.NewMarkov(a.Universe, 1<<17, 0.05, 0.15, 207)
		},
	})
	out = append(out, cseekCase{
		name: "cseek/unitdisk32/churn/seed1", seed: 1, budget: 2,
		// A shortened schedule keeps the doubled budget cheap; the
		// churn rates take most nodes down at least once per run.
		tuning: Tuning{P1Steps: 1, P2Steps: 2},
		build:  topologies[2].build,
		feed: func(g *graph.Graph) (radio.TopologyFeed, error) {
			return dynamics.NewChurn(g.N(), 0.002, 0.02, 208)
		},
	})
	return out
}

// cseekModes are the dispatch modes every golden case runs under.
var cseekModes = []string{"per-node", "bank-per-node", "bank-range"}

// hideRange wraps a protocol so the engine cannot see its RangeBank:
// a merged bank then runs on per-node dispatch.
type hideRange struct{ radio.Protocol }

func runCSeekCase(t *testing.T, tc cseekCase, mode string) cseekGolden {
	t.Helper()
	g, a, err := tc.build()
	if err != nil {
		t.Fatal(err)
	}
	k, kmax := a.OverlapRange(g)
	p := Params{N: g.N(), C: a.C, K: k, KMax: kmax, Delta: g.MaxDegree(), Tuning: tc.tuning}
	n := g.N()
	master := rng.New(tc.seed)
	seeks := make([]*CSeek, n)
	protos := make([]radio.Protocol, n)
	for u := 0; u < n; u++ {
		env := Env{ID: radio.NodeID(u), C: a.C, Rand: master.Split(uint64(u))}
		var s *CSeek
		if tc.khat != 0 {
			s, err = NewCKSeek(p, env, kmax, p.Delta)
		} else {
			s, err = NewCSeek(p, env)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.RecordChannels()
		seeks[u] = s
	}
	if mode != "per-node" {
		NewSeekBank(seeks)
	}
	for u, s := range seeks {
		protos[u] = s
		if mode == "bank-per-node" {
			protos[u] = hideRange{s}
		}
	}
	nw := &radio.Network{Graph: g, Assign: a}
	if tc.jammer != nil {
		if nw.Jammer, err = tc.jammer(a); err != nil {
			t.Fatal(err)
		}
	}
	if tc.feed != nil {
		if nw.Topology, err = tc.feed(g); err != nil {
			t.Fatal(err)
		}
	}
	e, err := radio.NewEngine(nw, protos)
	if err != nil {
		t.Fatal(err)
	}
	if want := mode == "bank-range"; e.RangeDispatch() != want {
		t.Fatalf("%s/%s: RangeDispatch = %v", tc.name, mode, e.RangeDispatch())
	}
	total := seeks[0].TotalSlots()
	doneAt := make([]int64, n)
	for u := range doneAt {
		doneAt[u] = -1
	}
	e.RunUntil(tc.budget*total, func(slot int64) bool {
		for u, s := range seeks {
			if doneAt[u] < 0 && s.Done() {
				doneAt[u] = slot
			}
		}
		return false
	})
	out := cseekGolden{Name: tc.name, TotalSlots: total, Nodes: make([]cseekNodeGolden, n)}
	for u, s := range seeks {
		ids := s.Discovered()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		heard := make([][2]int64, 0, len(ids))
		for _, id := range ids {
			heard = append(heard, [2]int64{int64(id), seekFirstHeard(t, s, id)})
		}
		h := fnv.New64a()
		var buf [4]byte
		for slot := int64(0); slot < total; slot++ {
			ch, ok := s.ChannelAt(slot)
			if !ok {
				ch = -1
			}
			buf[0], buf[1], buf[2], buf[3] = byte(ch), byte(ch>>8), byte(ch>>16), byte(ch>>24)
			h.Write(buf[:])
		}
		out.Nodes[u] = cseekNodeGolden{
			Heard:      heard,
			Counts:     append([]int64(nil), s.Counts()...),
			Discovered: s.DiscoveredCount(),
			DoneAt:     doneAt[u],
			Channels:   fmt.Sprintf("%016x", h.Sum64()),
		}
	}
	return out
}

// seekFirstHeard returns the local first-heard slot of a discovered id.
func seekFirstHeard(t *testing.T, s *CSeek, id radio.NodeID) int64 {
	t.Helper()
	slot, ok := s.FirstHeard(id)
	if !ok {
		t.Fatalf("discovered id %d has no first-heard record", id)
	}
	return slot
}

func TestCSeekSessionGolden(t *testing.T) {
	var got []cseekGolden
	for _, tc := range cseekCases() {
		first := runCSeekCase(t, tc, cseekModes[0])
		fb, _ := json.Marshal(first)
		for _, mode := range cseekModes[1:] {
			other := runCSeekCase(t, tc, mode)
			if ob, _ := json.Marshal(other); !bytes.Equal(ob, fb) {
				t.Errorf("%s: %s dispatch diverged from %s\n got: %s\nwant: %s", tc.name, mode, cseekModes[0], ob, fb)
			}
		}
		got = append(got, first)
	}
	path := filepath.FromSlash(cseekGoldenFile)
	if *updateSessions {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []cseekGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]cseekGolden, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	for _, g := range got {
		w, ok := byName[g.Name]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate with -update)", g.Name)
			continue
		}
		gb, _ := json.Marshal(g)
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: run diverged from golden\n got: %s\nwant: %s", g.Name, gb, wb)
		}
	}
}
