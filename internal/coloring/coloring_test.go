package coloring

import (
	"testing"
	"testing/quick"

	"crn/internal/graph"
	"crn/internal/rng"
)

func TestNodeStateLifecycle(t *testing.T) {
	r := rng.New(1)
	ns := NewNodeState(4)
	if !ns.Active() || ns.Color() != NoColor {
		t.Fatal("fresh state not active/uncolored")
	}
	if ns.PlateSize() != 4 {
		t.Fatalf("plate size %d, want 4", ns.PlateSize())
	}

	// Propose until the node actually proposes.
	p := NoColor
	for i := 0; i < 100 && p == NoColor; i++ {
		p = ns.Propose(r)
	}
	if p == NoColor {
		t.Fatal("node never proposed in 100 phases")
	}
	if p < 0 || p >= 4 {
		t.Fatalf("proposal %d outside plate", p)
	}

	// A conflicting neighbor proposal forces a give-up.
	if ns.ResolveConflicts([]int{p}) {
		t.Error("decided despite conflict")
	}
	if !ns.Active() {
		t.Error("inactive after giving up")
	}

	// A clean proposal decides.
	p = NoColor
	for i := 0; i < 100 && p == NoColor; i++ {
		p = ns.Propose(r)
	}
	if !ns.ResolveConflicts([]int{NoColor, p + 1}) {
		t.Error("did not decide without conflict")
	}
	if ns.Active() || ns.Color() != p {
		t.Errorf("color = %d active = %v, want %d/false", ns.Color(), ns.Active(), p)
	}
}

func TestNodeStatePlateShrinks(t *testing.T) {
	ns := NewNodeState(4)
	ns.ObserveDecisions([]int{0, 2, NoColor})
	if ns.PlateSize() != 2 {
		t.Fatalf("plate size %d after removals, want 2", ns.PlateSize())
	}
	// Proposals must come from the remaining plate {1, 3}.
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		if p := ns.Propose(r); p != NoColor && p != 1 && p != 3 {
			t.Fatalf("proposal %d from struck color", p)
		}
	}
}

func TestNodeStateDecidedIgnoresUpdates(t *testing.T) {
	r := rng.New(3)
	ns := NewNodeState(2)
	for !ns.ResolveConflicts(nil) {
		ns.Propose(r)
	}
	c := ns.Color()
	ns.ObserveDecisions([]int{c}) // must not disturb a decided node
	if ns.Color() != c {
		t.Error("decided color changed")
	}
	if got := ns.Propose(r); got != NoColor {
		t.Error("decided node proposed")
	}
}

func TestRunOnPath(t *testing.T) {
	g := graph.Path(10)
	res, err := Run(g, 4, 200, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("coloring incomplete")
	}
	if err := Validate(g, res.Colors, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnCompleteGraph(t *testing.T) {
	g := graph.Complete(8)
	res, err := Run(g, 16, 500, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("coloring incomplete")
	}
	if err := Validate(g, res.Colors, 16); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsTooFewColors(t *testing.T) {
	g := graph.Complete(5)
	if _, err := Run(g, 4, 100, rng.New(6)); err == nil {
		t.Error("numColors == maxDegree accepted")
	}
}

// TestRunLineGraphTwoDelta is the Lemma 8 setting: color the line graph
// of G with 2Δ(G) colors.
func TestRunLineGraphTwoDelta(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g, err := graph.GNP(14, 0.3, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		lg, _ := g.LineGraph()
		numColors := 2 * g.MaxDegree()
		res, err := Run(lg, numColors, 400, rng.New(seed+50))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: line-graph coloring incomplete", seed)
		}
		if err := Validate(lg, res.Colors, numColors); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRunPhasesLogarithmic checks the Lemma 8 shape: phases grow slowly
// (≈ lg n) rather than linearly in n.
func TestRunPhasesLogarithmic(t *testing.T) {
	phasesFor := func(n int) int {
		g := graph.Path(n)
		res, err := Run(g, 4, 10_000, rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("n=%d incomplete", n)
		}
		return res.Phases
	}
	p64 := phasesFor(64)
	p1024 := phasesFor(1024)
	// 16x more nodes should cost only a few extra phases, far below 16x.
	if p1024 > 4*p64 {
		t.Errorf("phases grew from %d (n=64) to %d (n=1024); expected logarithmic growth", p64, p1024)
	}
}

func TestValidateRejects(t *testing.T) {
	g := graph.Path(3)
	if err := Validate(g, []int{0, 0, 1}, 2); err == nil {
		t.Error("adjacent duplicate accepted")
	}
	if err := Validate(g, []int{0, 1}, 2); err == nil {
		t.Error("wrong length accepted")
	}
	if err := Validate(g, []int{0, 1, 5}, 2); err == nil {
		t.Error("out-of-range color accepted")
	}
	if err := Validate(g, []int{0, 1, NoColor}, 2); err == nil {
		t.Error("uncolored node accepted")
	}
}

func TestValidateEdgeColoring(t *testing.T) {
	g := graph.Star(4)
	edges := g.Edges()
	good := map[graph.Edge]int{edges[0]: 0, edges[1]: 1, edges[2]: 2}
	if err := ValidateEdgeColoring(g, good, 3); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
	bad := map[graph.Edge]int{edges[0]: 0, edges[1]: 0, edges[2]: 2}
	if err := ValidateEdgeColoring(g, bad, 3); err == nil {
		t.Error("clashing star edges accepted")
	}
	missing := map[graph.Edge]int{edges[0]: 0, edges[1]: 1}
	if err := ValidateEdgeColoring(g, missing, 3); err == nil {
		t.Error("missing edge accepted")
	}
}

func TestGreedyEdgeColoring(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := graph.GNP(12, 0.4, rng.New(seed))
		if err != nil {
			return true
		}
		ec := Greedy(g)
		return ValidateEdgeColoring(g, ec, 2*g.MaxDegree()+1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickRunAlwaysValid fuzzes random graphs; every completed run
// must be a proper coloring.
func TestQuickRunAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := graph.GNP(12, 0.35, r)
		if err != nil {
			return true
		}
		numColors := g.MaxDegree() + 1
		res, err := Run(g, numColors, 2000, r)
		if err != nil || !res.Completed {
			return false
		}
		return Validate(g, res.Colors, numColors) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestValidatePartialEdgeColoring(t *testing.T) {
	// Path 0-1-2-3 plus chord 1-3: edges in g.Edges() order are
	// (0,1) (1,2) (1,3) (2,3).
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 3}} {
		g.MustAddEdge(e[0], e[1])
	}
	g.Finalize()
	cases := []struct {
		name   string
		colors []int
		ok     bool
	}{
		{"proper", []int{0, 1, 2, 0}, true},
		{"clash beside uncolored edges", []int{NoColor, 1, NoColor, 1}, false},
		{"shared endpoint and color", []int{0, 0, NoColor, NoColor}, false},
		{"disjoint edges may share a color", []int{3, NoColor, NoColor, 3}, true},
		{"all uncolored", []int{NoColor, NoColor, NoColor, NoColor}, true},
		{"color out of range", []int{0, 1, -2, NoColor}, false},
		{"length mismatch", []int{0, 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidatePartialEdgeColoring(g, tc.colors)
			if (err == nil) != tc.ok {
				t.Errorf("ValidatePartialEdgeColoring(%v) = %v, want ok=%v", tc.colors, err, tc.ok)
			}
		})
	}
}
