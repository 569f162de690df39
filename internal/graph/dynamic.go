package graph

import "crn/internal/bitset"

// Dynamic is a mutable view of a graph for time-varying topologies:
// node mobility and link flapping mutate the edge set between radio
// slots, so the structure supports incremental edge insertion and
// removal while preserving every invariant the radio engine's resolve
// fast paths rely on — sorted adjacency lists (the O(log Δ) binary-
// search probe), the dense bit matrix (the O(1) probe), and the
// hash-set edge index above the matrix node cap.
//
// NewDynamic deep-copies the base graph, so the base stays immutable
// (scenarios are shared read-only across sweep workers; each run
// mutates its own clone) and remains available as the reference
// topology for partition-loss accounting.
//
// Costs per mutation: an O(1) matrix/hash update plus an O(Δ) scan
// and shift of the adjacency list (Δ is small and the list is one or
// two cache lines of int32s, so the scan beats a binary search's
// per-probe branches) — no re-sort, no rebuild. The
// edge list is maintained by swap-removal through an index map, so it
// stays exact but loses the sorted order Finalize established;
// Dynamic callers needing ordered edges must sort a copy.
type Dynamic struct {
	g *Graph
	// edgeIdx maps a packed (U,V) key to the edge's position in
	// g.edges, making removal O(1) after the adjacency update.
	edgeIdx map[uint64]int
}

// NewDynamic returns a mutable deep copy of base. The base graph is
// left untouched and must already be finalized (generators finalize;
// the radio engine finalizes on construction).
func NewDynamic(base *Graph) *Dynamic {
	base.Finalize()
	g := &Graph{
		n:     base.n,
		adj:   make([][]int32, base.n),
		edges: make([]Edge, len(base.edges)),
		final: true,
	}
	for u := range base.adj {
		g.adj[u] = append([]int32(nil), base.adj[u]...)
	}
	copy(g.edges, base.edges)
	switch {
	case base.nbr != nil:
		g.nbr = base.nbr.Clone()
	case base.edgeSet != nil:
		g.edgeSet = make(map[uint64]struct{}, len(base.edgeSet))
		for k := range base.edgeSet {
			g.edgeSet[k] = struct{}{}
		}
	default:
		// An edgeless base below the matrix cap has no edge index yet
		// (AddEdge builds the matrix lazily); the view needs one from
		// the start, or HasEdge misses every added edge.
		g.nbr = bitset.NewMatrix(g.n, g.n)
	}
	d := &Dynamic{g: g, edgeIdx: make(map[uint64]int, len(g.edges))}
	for i, e := range g.edges {
		d.edgeIdx[edgeKey(int(e.U), int(e.V))] = i
	}
	return d
}

// Graph returns the mutable view. The radio engine reads topology
// through this pointer, so mutations are visible to the next slot's
// resolution immediately; callers must only mutate between slots.
func (d *Dynamic) Graph() *Graph { return d.g }

// N returns the number of vertices.
func (d *Dynamic) N() int { return d.g.n }

// M returns the current number of edges.
func (d *Dynamic) M() int { return len(d.g.edges) }

// HasEdge reports whether {u, v} is currently an edge.
func (d *Dynamic) HasEdge(u, v int) bool { return d.g.HasEdge(u, v) }

// AddEdge inserts the undirected edge {u, v} incrementally. It
// reports whether the topology changed: self-loops, out-of-range
// endpoints and already-present edges are no-ops returning false
// (dynamics models reconcile desired state declaratively, so
// redundant calls are expected, not errors).
func (d *Dynamic) AddEdge(u, v int) bool {
	g := d.g
	if u == v || u < 0 || u >= g.n || v < 0 || v >= g.n || g.HasEdge(u, v) {
		return false
	}
	if u > v {
		u, v = v, u
	}
	insertSorted(&g.adj[u], int32(v))
	insertSorted(&g.adj[v], int32(u))
	d.edgeIdx[edgeKey(u, v)] = len(g.edges)
	g.edges = append(g.edges, Edge{U: int32(u), V: int32(v)})
	if g.edgeSet != nil {
		g.edgeSet[edgeKey(u, v)] = struct{}{}
	}
	if g.nbr != nil {
		g.nbr.Set(u, v)
		g.nbr.Set(v, u)
	}
	return true
}

// RemoveEdge deletes the undirected edge {u, v} incrementally. It
// reports whether the topology changed; absent edges are a no-op.
func (d *Dynamic) RemoveEdge(u, v int) bool {
	g := d.g
	if u == v || u < 0 || u >= g.n || v < 0 || v >= g.n || !g.HasEdge(u, v) {
		return false
	}
	if u > v {
		u, v = v, u
	}
	removeSorted(&g.adj[u], int32(v))
	removeSorted(&g.adj[v], int32(u))
	key := edgeKey(u, v)
	i := d.edgeIdx[key]
	last := len(g.edges) - 1
	if i != last {
		moved := g.edges[last]
		g.edges[i] = moved
		d.edgeIdx[edgeKey(int(moved.U), int(moved.V))] = i
	}
	g.edges = g.edges[:last]
	delete(d.edgeIdx, key)
	if g.edgeSet != nil {
		delete(g.edgeSet, key)
	}
	if g.nbr != nil {
		g.nbr.Unset(u, v)
		g.nbr.Unset(v, u)
	}
	return true
}

// insertSorted inserts v into the sorted slice *a (v known absent).
// Adjacency lists are short (mean degree), so a linear position scan
// beats sort.Search's per-probe closure calls.
func insertSorted(a *[]int32, v int32) {
	s := *a
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	*a = s
}

// removeSorted deletes v from the sorted slice *a (v known present).
func removeSorted(a *[]int32, v int32) {
	s := *a
	i := 0
	for s[i] != v {
		i++
	}
	copy(s[i:], s[i+1:])
	*a = s[:len(s)-1]
}
