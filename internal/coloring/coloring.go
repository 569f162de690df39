// Package coloring implements the randomized node-coloring procedure
// CGCAST uses to edge-color the network (Section 5.2, an adaptation of
// Luby's algorithm [13]).
//
// The algorithm proceeds in phases of two steps. At the start of a
// phase every still-active node flips a coin; with probability 1/2 it
// proposes a uniformly random color from its remaining plate. Nodes
// exchange proposals with neighbors (step one); any two neighbors that
// proposed the same color both give up, everyone else keeps the
// proposal and decides. In step two the deciders announce their final
// colors; neighbors strike those colors from their plates and continue.
// Lemma 8: with a plate of 2Δ colors, O(lg n) phases suffice w.h.p.
//
// The per-node phase logic lives in NodeState so that the standalone
// solver here and CGCAST's in-model embedding (which exchanges the same
// information over CSEEK executions) share one implementation.
package coloring

import (
	"fmt"
	"sort"

	"crn/internal/bitset"
	"crn/internal/graph"
	"crn/internal/rng"
)

// NoColor marks an undecided node.
const NoColor = -1

// NodeState is the per-node (or, in CGCAST, per-virtual-node) coloring
// state machine.
type NodeState struct {
	plate    *bitset.Set
	color    int
	proposal int
}

// NewNodeState returns an active node with a full plate of numColors
// colors.
func NewNodeState(numColors int) *NodeState {
	return &NewNodeStates(1, numColors)[0]
}

// NewNodeStates returns count active nodes, each with a full plate of
// numColors colors. The plates share one backing array, so CGCAST's one
// virtual node per edge costs three allocations in total, not three
// per edge.
func NewNodeStates(count, numColors int) []NodeState {
	plates := bitset.NewSets(count, numColors)
	states := make([]NodeState, count)
	for i := range states {
		plate := &plates[i]
		for c := 0; c < numColors; c++ {
			plate.Add(c)
		}
		states[i] = NodeState{plate: plate, color: NoColor, proposal: NoColor}
	}
	return states
}

// Active reports whether the node still needs a color.
func (ns *NodeState) Active() bool { return ns.color == NoColor }

// Color returns the decided color, or NoColor.
func (ns *NodeState) Color() int { return ns.color }

// Proposal returns this phase's proposal, or NoColor if the node sat
// out (or already decided).
func (ns *NodeState) Proposal() int { return ns.proposal }

// PlateSize returns the number of colors still available.
func (ns *NodeState) PlateSize() int { return ns.plate.Count() }

// Propose starts a phase: with probability 1/2 the node picks a
// uniform color from its plate and returns it; otherwise (or if
// already decided) it returns NoColor.
func (ns *NodeState) Propose(r *rng.Source) int {
	ns.proposal = NoColor
	if !ns.Active() || !r.Bool() {
		return NoColor
	}
	avail := ns.plate.Count()
	if avail == 0 {
		// Cannot happen with a 2Δ plate (Lemma 8 precondition);
		// degrade to sitting the phase out rather than panicking.
		return NoColor
	}
	c, _ := ns.plate.NthElem(r.Intn(avail))
	ns.proposal = c
	return c
}

// ResolveConflicts completes step one: the node keeps its proposal and
// decides iff no conflicting proposal appears among its neighbors'
// proposals. Returns true if the node decided this phase.
func (ns *NodeState) ResolveConflicts(neighborProposals []int) bool {
	if ns.proposal == NoColor {
		return false
	}
	for _, p := range neighborProposals {
		if p == ns.proposal {
			ns.proposal = NoColor
			return false
		}
	}
	ns.color = ns.proposal
	ns.proposal = NoColor
	return true
}

// ObserveDecisions completes step two: colors decided by neighbors are
// struck from the plate.
func (ns *NodeState) ObserveDecisions(neighborColors []int) {
	if !ns.Active() {
		return
	}
	for _, c := range neighborColors {
		if c >= 0 {
			ns.plate.Remove(c)
		}
	}
}

// Result is the outcome of a standalone coloring run.
type Result struct {
	// Colors[u] is node u's color.
	Colors []int
	// Phases is the number of phases executed.
	Phases int
	// Completed reports whether every node decided within the budget.
	Completed bool
}

// Run colors g with numColors colors using at most maxPhases phases.
// Per Lemma 8, numColors = 2Δ(G_orig) and maxPhases = Θ(lg n) succeed
// w.h.p. when g is a line graph of a graph with max degree Δ; the
// solver itself works for any graph with numColors > maxDegree(g).
func Run(g *graph.Graph, numColors, maxPhases int, r *rng.Source) (Result, error) {
	if numColors <= g.MaxDegree() {
		return Result{}, fmt.Errorf("coloring: %d colors cannot color max degree %d", numColors, g.MaxDegree())
	}
	n := g.N()
	states := NewNodeStates(n, numColors)

	proposals := make([]int, n)
	decided := make([]int, n)
	var scratch []int
	phases := 0
	remaining := n
	for phases < maxPhases && remaining > 0 {
		phases++
		// Step one: propose.
		for u := 0; u < n; u++ {
			proposals[u] = states[u].Propose(r)
		}
		// Step one: exchange proposals, resolve conflicts.
		for u := 0; u < n; u++ {
			decided[u] = NoColor
			if proposals[u] == NoColor {
				continue
			}
			scratch = scratch[:0]
			for _, v := range g.Neighbors(u) {
				scratch = append(scratch, proposals[v])
			}
			if states[u].ResolveConflicts(scratch) {
				decided[u] = states[u].Color()
				remaining--
			}
		}
		// Step two: exchange decisions, shrink plates.
		for u := 0; u < n; u++ {
			if !states[u].Active() {
				continue
			}
			scratch = scratch[:0]
			for _, v := range g.Neighbors(u) {
				scratch = append(scratch, decided[v])
			}
			states[u].ObserveDecisions(scratch)
		}
	}

	res := Result{
		Colors:    make([]int, n),
		Phases:    phases,
		Completed: remaining == 0,
	}
	for u := 0; u < n; u++ {
		res.Colors[u] = states[u].Color()
	}
	return res, nil
}

// Validate checks that colors is a proper coloring of g using colors
// in [0, numColors).
func Validate(g *graph.Graph, colors []int, numColors int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d colors for %d nodes", len(colors), g.N())
	}
	for u, c := range colors {
		if c < 0 || c >= numColors {
			return fmt.Errorf("coloring: node %d has color %d outside [0,%d)", u, c, numColors)
		}
	}
	for _, e := range g.Edges() {
		if colors[e.U] == colors[e.V] {
			return fmt.Errorf("coloring: adjacent nodes %d and %d share color %d", e.U, e.V, colors[e.U])
		}
	}
	return nil
}

// ValidateEdgeColoring checks that edgeColors is a proper edge coloring
// of g: every edge colored in [0, numColors), no two edges sharing an
// endpoint share a color.
func ValidateEdgeColoring(g *graph.Graph, edgeColors map[graph.Edge]int, numColors int) error {
	if len(edgeColors) != g.M() {
		return fmt.Errorf("coloring: %d edge colors for %d edges", len(edgeColors), g.M())
	}
	type slot struct {
		node  int32
		color int
	}
	seen := make(map[slot]graph.Edge, 2*g.M())
	for _, e := range g.Edges() {
		c, ok := edgeColors[e]
		if !ok {
			return fmt.Errorf("coloring: edge (%d,%d) uncolored", e.U, e.V)
		}
		if c < 0 || c >= numColors {
			return fmt.Errorf("coloring: edge (%d,%d) color %d outside [0,%d)", e.U, e.V, c, numColors)
		}
		for _, end := range [2]int32{e.U, e.V} {
			key := slot{node: end, color: c}
			if other, dup := seen[key]; dup {
				return fmt.Errorf("coloring: edges (%d,%d) and (%d,%d) share color %d at node %d",
					e.U, e.V, other.U, other.V, c, end)
			}
			seen[key] = e
		}
	}
	return nil
}

// ValidatePartialEdgeColoring checks that colors, indexed by position
// in g.Edges(), is a proper coloring of the colored subgraph: NoColor
// marks an uncolored edge, every other color must be non-negative, and
// no two colored edges sharing an endpoint may share a color. Unlike
// ValidateEdgeColoring it sets no palette bound and allows gaps, which
// is what CGCAST realizes after dropping edges it failed to color.
func ValidatePartialEdgeColoring(g *graph.Graph, colors []int) error {
	edges := g.Edges()
	if len(colors) != len(edges) {
		return fmt.Errorf("coloring: %d edge colors for %d edges", len(colors), len(edges))
	}
	// One (endpoint, color) incidence per colored edge end; sorting
	// brings any two equal incidences next to each other.
	type incidence struct {
		node  int32
		color int
		edge  int
	}
	inc := make([]incidence, 0, 2*len(edges))
	for i, c := range colors {
		if c == NoColor {
			continue
		}
		if c < 0 {
			return fmt.Errorf("coloring: edge (%d,%d) has color %d out of range", edges[i].U, edges[i].V, c)
		}
		inc = append(inc, incidence{edges[i].U, c, i}, incidence{edges[i].V, c, i})
	}
	sort.Slice(inc, func(i, j int) bool {
		if inc[i].node != inc[j].node {
			return inc[i].node < inc[j].node
		}
		return inc[i].color < inc[j].color
	})
	for i := 1; i < len(inc); i++ {
		if a, b := inc[i-1], inc[i]; a.node == b.node && a.color == b.color {
			ea, eb := edges[a.edge], edges[b.edge]
			return fmt.Errorf("coloring: edges (%d,%d) and (%d,%d) share color %d at node %d",
				ea.U, ea.V, eb.U, eb.V, a.color, a.node)
		}
	}
	return nil
}

// Greedy returns a sequential greedy edge coloring of g — the
// centralized baseline used to sanity-check color counts. It uses at
// most 2Δ-1 colors.
func Greedy(g *graph.Graph) map[graph.Edge]int {
	used := make([]*bitset.Set, g.N())
	numColors := 2*g.MaxDegree() + 1
	for u := range used {
		used[u] = bitset.New(numColors)
	}
	out := make(map[graph.Edge]int, g.M())
	for _, e := range g.Edges() {
		c := 0
		for used[e.U].Contains(c) || used[e.V].Contains(c) {
			c++
		}
		out[e] = c
		used[e.U].Add(c)
		used[e.V].Add(c)
	}
	return out
}
