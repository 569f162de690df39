package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// Session golden: the realized CGCAST setup (per-node color → channel
// schedules, coloring phases, slot cost and edge accounting) for a
// fixed set of networks and seeds, committed in
// testdata/cgcast_sessions.json. Any change to the coloring's RNG draw
// order, to the two-hop visibility rule or to the drop and schedule
// rules shows up here as a diff. Regenerate deliberately with:
//
//	go test ./internal/core -run TestCGCastSessionGolden -update
var updateSessions = flag.Bool("update", false, "rewrite the CGCAST session golden file")

const sessionGoldenFile = "testdata/cgcast_sessions.json"

// sessionGolden is one case's recorded setup outcome.
type sessionGolden struct {
	Name           string    `json:"name"`
	Schedules      [][]int32 `json:"schedules"`
	ColoringPhases int       `json:"coloringPhases"`
	SetupSlots     int64     `json:"setupSlots"`
	EdgesColored   int       `json:"edgesColored"`
	EdgesDropped   int       `json:"edgesDropped"`
	ColoringValid  bool      `json:"coloringValid"`
}

// sessionCase builds one golden network. A zero tuning means the
// defaults. Cut tunings shorten the schedules: in abstract mode a
// single coloring phase leaves edges uncolored (the drop path); in
// full mode short CSEEK runs leave neighbors unheard, so the two-hop
// visibility rule decides conflicts.
type sessionCase struct {
	name   string
	mode   BroadcastMode
	seed   uint64
	tuning Tuning
	build  func() (*graph.Graph, *chanassign.Assignment, error)
}

// cutTuning is the shortened schedule of the cut abstract cases;
// fullTuning cuts the CSEEK runs but keeps lg n coloring phases.
var (
	cutTuning = Tuning{
		CountSlotsPerRound: 4,
		CountMinRoundSlots: 16,
		P1Steps:            1,
		P2Steps:            1,
		ColoringPhases:     0.25,
	}
	fullTuning = Tuning{
		CountSlotsPerRound: 4,
		CountMinRoundSlots: 16,
		P1Steps:            1,
		P2Steps:            1,
		ColoringPhases:     1,
	}
)

func sessionCases() []sessionCase {
	shared := func(g *graph.Graph, err error, c, k int, seed uint64) (*graph.Graph, *chanassign.Assignment, error) {
		if err != nil {
			return nil, nil, err
		}
		a, err := chanassign.SharedCore(g.N(), c, k, rng.New(seed))
		return g, a, err
	}
	topologies := []struct {
		name  string
		build func() (*graph.Graph, *chanassign.Assignment, error)
	}{
		{"unitdisk32", func() (*graph.Graph, *chanassign.Assignment, error) {
			g, err := graph.UnitDisk(32, 0.35, rng.New(101))
			return shared(g, err, 6, 2, 102)
		}},
		{"chain64", func() (*graph.Graph, *chanassign.Assignment, error) {
			g, err := graph.ClusterChain(16, 4)
			return shared(g, err, 6, 2, 103)
		}},
		{"gnp16", func() (*graph.Graph, *chanassign.Assignment, error) {
			g, err := graph.GNP(16, 0.3, rng.New(104))
			if err != nil {
				return nil, nil, err
			}
			a, err := chanassign.Heterogeneous(g, 8, 2, 5, 0.4, rng.New(105))
			return g, a, err
		}},
		{"star9", func() (*graph.Graph, *chanassign.Assignment, error) {
			return shared(graph.Star(9), nil, 4, 1, 106)
		}},
	}
	var out []sessionCase
	for _, tp := range topologies {
		for _, seed := range []uint64{1, 2, 3} {
			tc := sessionCase{
				name: fmt.Sprintf("abstract/%s/seed%d", tp.name, seed),
				mode: ExchangeAbstract, seed: seed, build: tp.build,
			}
			if seed == 3 {
				tc.tuning = cutTuning
			}
			out = append(out, tc)
		}
	}
	full := []struct {
		name  string
		build func() (*graph.Graph, *chanassign.Assignment, error)
	}{
		{"path6", func() (*graph.Graph, *chanassign.Assignment, error) {
			return shared(graph.Path(6), nil, 3, 2, 107)
		}},
		{"star5", func() (*graph.Graph, *chanassign.Assignment, error) {
			return shared(graph.Star(5), nil, 3, 2, 108)
		}},
	}
	for _, tp := range full {
		for _, seed := range []uint64{1, 2, 3} {
			tc := sessionCase{
				name: fmt.Sprintf("full/%s/seed%d", tp.name, seed),
				mode: ExchangeFull, seed: seed, build: tp.build,
			}
			if seed != 3 {
				tc.tuning = fullTuning
			}
			out = append(out, tc)
		}
	}
	return out
}

func recordSession(t *testing.T, tc sessionCase) sessionGolden {
	t.Helper()
	g, a, err := tc.build()
	if err != nil {
		t.Fatal(err)
	}
	k, kmax := a.OverlapRange(g)
	p := Params{N: g.N(), C: a.C, K: k, KMax: kmax, Delta: g.MaxDegree()}
	p.Tuning = tc.tuning
	s, err := PrepareCGCast(&radio.Network{Graph: g, Assign: a}, SessionConfig{
		Params: p, Mode: tc.mode, Seed: tc.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res BroadcastResult
	s.fillColoringStats(&res)
	if res.EdgesColored != s.EdgesColored() {
		t.Errorf("%s: result counts %d colored edges, session %d", tc.name, res.EdgesColored, s.EdgesColored())
	}
	return sessionGolden{
		Name:           tc.name,
		Schedules:      s.schedules,
		ColoringPhases: s.ColoringPhases(),
		SetupSlots:     s.SetupSlots(),
		EdgesColored:   res.EdgesColored,
		EdgesDropped:   res.EdgesDropped,
		ColoringValid:  res.ColoringValid,
	}
}

func TestCGCastSessionGolden(t *testing.T) {
	var got []sessionGolden
	for _, tc := range sessionCases() {
		got = append(got, recordSession(t, tc))
	}
	path := filepath.FromSlash(sessionGoldenFile)
	if *updateSessions {
		// One case per line keeps the file diffable case by case.
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
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []sessionGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]sessionGolden, len(want))
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
			t.Errorf("%s: session diverged from golden\n got: %s\nwant: %s", g.Name, gb, wb)
		}
	}
}
