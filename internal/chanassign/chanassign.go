// Package chanassign generates and validates channel assignments for
// cognitive radio networks.
//
// Each node has a radio that can access exactly c channels drawn from a
// global universe; neighboring nodes must share at least k and at most
// kmax channels (Section 3 of the paper). Crucially, there is no global
// channel labeling: each node refers to its channels by local labels
// 0..c-1, and the mapping from local labels to global channels is a
// per-node permutation that the algorithms never see.
package chanassign

import (
	"fmt"

	"crn/internal/bitset"
	"crn/internal/graph"
	"crn/internal/rng"
)

// Assignment is a complete channel assignment for an n-node network.
type Assignment struct {
	// Universe is the number of global channels.
	Universe int
	// C is the number of channels each node can access.
	C int
	// sets[u] is node u's global channel set (cardinality C).
	sets []*bitset.Set
	// localToGlobal[u][l] is the global channel behind node u's local
	// label l.
	localToGlobal [][]int32
	// l2gFlat is localToGlobal flattened to one row-major array
	// (stride C): the radio engine resolves a global channel per
	// non-idle node per slot, and the flat layout turns that into a
	// single indexed load.
	l2gFlat []int32
	// globalToLocal[u][g] is node u's local label for global channel g,
	// or -1 if u cannot access g.
	globalToLocal [][]int32
}

// newAssignment wires the label tables for the given global sets.
// Local labels are a random permutation of each node's set, modeling
// the absence of a global channel labeling.
func newAssignment(universe, c int, sets []*bitset.Set, r *rng.Source) *Assignment {
	a := &Assignment{
		Universe:      universe,
		C:             c,
		sets:          sets,
		localToGlobal: make([][]int32, len(sets)),
		globalToLocal: make([][]int32, len(sets)),
	}
	for u, s := range sets {
		elems := s.Elems(nil)
		perm := r.Perm(len(elems))
		l2g := make([]int32, len(elems))
		g2l := make([]int32, universe)
		for i := range g2l {
			g2l[i] = -1
		}
		for local, pi := range perm {
			g := int32(elems[pi])
			l2g[local] = g
			g2l[g] = int32(local)
		}
		a.localToGlobal[u] = l2g
		a.globalToLocal[u] = g2l
	}
	a.buildFlat()
	return a
}

// buildFlat derives the flattened label table from localToGlobal. A
// malformed assignment (some row shorter than C) keeps the flat table
// nil so Global falls back to the indexed path and label misuse still
// panics loudly instead of silently reading padding.
func (a *Assignment) buildFlat() {
	flat := make([]int32, len(a.localToGlobal)*a.C)
	for u, l2g := range a.localToGlobal {
		if len(l2g) != a.C {
			a.l2gFlat = nil
			return
		}
		copy(flat[u*a.C:], l2g)
	}
	a.l2gFlat = flat
}

// N returns the number of nodes.
func (a *Assignment) N() int { return len(a.sets) }

// Set returns node u's global channel set. Callers must not modify it.
func (a *Assignment) Set(u int) *bitset.Set { return a.sets[u] }

// Global maps node u's local label to a global channel.
func (a *Assignment) Global(u, local int) int32 {
	if a.l2gFlat == nil || local < 0 || local >= a.C {
		// Preserve the out-of-range panic shape protocols relied on.
		return a.localToGlobal[u][local]
	}
	return a.l2gFlat[u*a.C+local]
}

// Flat exposes the flattened local→global label table (row stride C):
// Flat()[u*C+local] == Global(u, local). Returns (nil, 0) when the
// assignment is malformed and no flat table exists. Hot engine loops
// that validate the local label themselves use it to skip Global's
// per-call guards; callers must not modify the slice.
func (a *Assignment) Flat() ([]int32, int) {
	if a.l2gFlat == nil {
		return nil, 0
	}
	return a.l2gFlat, a.C
}

// Local maps a global channel to node u's local label, or -1 if node u
// cannot access that channel.
func (a *Assignment) Local(u int, global int32) int32 { return a.globalToLocal[u][global] }

// SharedCount returns the number of channels nodes u and v share.
func (a *Assignment) SharedCount(u, v int) int {
	return a.sets[u].IntersectionCount(a.sets[v])
}

// FirstShared returns the lowest-numbered global channel u and v share
// and true, or (0, false) when they share none. It does not allocate.
func (a *Assignment) FirstShared(u, v int) (int32, bool) {
	g, ok := a.sets[u].FirstCommon(a.sets[v])
	return int32(g), ok
}

// OverlapRange returns the minimum and maximum pairwise overlap over
// the edges of g (the realized k and kmax). For edgeless graphs it
// returns (0, 0).
func (a *Assignment) OverlapRange(g *graph.Graph) (kMin, kMax int) {
	first := true
	for _, e := range g.Edges() {
		s := a.SharedCount(int(e.U), int(e.V))
		if first {
			kMin, kMax = s, s
			first = false
			continue
		}
		if s < kMin {
			kMin = s
		}
		if s > kMax {
			kMax = s
		}
	}
	return kMin, kMax
}

// Validate checks structural invariants: every node has exactly C
// channels, label tables are consistent bijections, and every edge of g
// shares between k and kmax channels.
func (a *Assignment) Validate(g *graph.Graph, k, kmax int) error {
	if g.N() != a.N() {
		return fmt.Errorf("chanassign: graph has %d nodes, assignment %d", g.N(), a.N())
	}
	for u := 0; u < a.N(); u++ {
		if got := a.sets[u].Count(); got != a.C {
			return fmt.Errorf("chanassign: node %d has %d channels, want %d", u, got, a.C)
		}
		if len(a.localToGlobal[u]) != a.C {
			return fmt.Errorf("chanassign: node %d has %d local labels, want %d", u, len(a.localToGlobal[u]), a.C)
		}
		for l, gch := range a.localToGlobal[u] {
			if !a.sets[u].Contains(int(gch)) {
				return fmt.Errorf("chanassign: node %d label %d maps to %d outside its set", u, l, gch)
			}
			if back := a.globalToLocal[u][gch]; int(back) != l {
				return fmt.Errorf("chanassign: node %d label %d->%d->%d roundtrip mismatch", u, l, gch, back)
			}
		}
	}
	for _, e := range g.Edges() {
		s := a.SharedCount(int(e.U), int(e.V))
		if s < k || s > kmax {
			return fmt.Errorf("chanassign: edge (%d,%d) shares %d channels, want [%d,%d]", e.U, e.V, s, k, kmax)
		}
	}
	return nil
}

// SharedCore assigns every node the same k "core" channels plus c-k
// channels private to that node. Every pair of neighbors therefore
// shares exactly k channels (the kmax = k regime in which Theorem 4
// matches the lower bound). Universe size is k + n·(c-k).
func SharedCore(n, c, k int, r *rng.Source) (*Assignment, error) {
	if err := checkParams(n, c, k, k); err != nil {
		return nil, err
	}
	universe := k + n*(c-k)
	sets := make([]*bitset.Set, n)
	for u := 0; u < n; u++ {
		s := bitset.New(universe)
		for g := 0; g < k; g++ {
			s.Add(g)
		}
		base := k + u*(c-k)
		for i := 0; i < c-k; i++ {
			s.Add(base + i)
		}
		sets[u] = s
	}
	return newAssignment(universe, c, sets, r), nil
}

// SharedPool assigns every node k core channels plus c-k channels
// drawn uniformly without replacement from a shared pool of the given
// size. Neighbors share at least the k core channels and additionally
// overlap on pool channels with expectation ≈ (c-k)²/poolSize, so the
// realized kmax exceeds k by a controllable random amount.
func SharedPool(n, c, k, poolSize int, r *rng.Source) (*Assignment, error) {
	if err := checkParams(n, c, k, c); err != nil {
		return nil, err
	}
	if poolSize < c-k {
		return nil, fmt.Errorf("chanassign: pool size %d < c-k = %d", poolSize, c-k)
	}
	universe := k + poolSize
	sets := make([]*bitset.Set, n)
	for u := 0; u < n; u++ {
		s := bitset.New(universe)
		for g := 0; g < k; g++ {
			s.Add(g)
		}
		for _, p := range r.SampleK(poolSize, c-k) {
			s.Add(k + p)
		}
		sets[u] = s
	}
	return newAssignment(universe, c, sets, r), nil
}

// Heterogeneous assigns channels so that a chosen fraction of edges
// ("heavy" edges) share exactly kmax channels while all others share
// exactly k. This produces the kmax >> k regime where CSEEK's
// (kmax/k)·Δ term separates from the lower bound (Section 7).
//
// Heavy edges are selected greedily subject to each node's budget of
// (c-k)/(kmax-k) heavy incidences; heavyFrac is the target fraction of
// edges to make heavy (best effort).
func Heterogeneous(g *graph.Graph, c, k, kmax int, heavyFrac float64, r *rng.Source) (*Assignment, error) {
	n := g.N()
	if err := checkParams(n, c, k, kmax); err != nil {
		return nil, err
	}
	if kmax < k {
		return nil, fmt.Errorf("chanassign: kmax %d < k %d", kmax, k)
	}
	extra := kmax - k
	if extra > 0 && c-k < extra {
		return nil, fmt.Errorf("chanassign: c-k = %d cannot host kmax-k = %d extra shared channels", c-k, extra)
	}

	// Select heavy edges greedily under per-node budgets.
	budget := make([]int, n)
	if extra > 0 {
		for u := range budget {
			budget[u] = (c - k) / extra
		}
	}
	edges := g.Edges()
	order := r.Perm(len(edges))
	wantHeavy := int(heavyFrac * float64(len(edges)))
	heavy := make([]bool, len(edges))
	nHeavy := 0
	if extra > 0 {
		for _, i := range order {
			if nHeavy >= wantHeavy {
				break
			}
			e := edges[i]
			if budget[e.U] > 0 && budget[e.V] > 0 {
				heavy[i] = true
				budget[e.U]--
				budget[e.V]--
				nHeavy++
			}
		}
	}

	// Universe layout: k core channels, then one fresh block of `extra`
	// channels per heavy edge, then per-node private filler.
	universe := k + nHeavy*extra + n*(c-k)
	sets := make([]*bitset.Set, n)
	used := make([]int, n) // non-core channels consumed per node
	for u := 0; u < n; u++ {
		s := bitset.New(universe)
		for gch := 0; gch < k; gch++ {
			s.Add(gch)
		}
		sets[u] = s
	}
	next := k
	for i, e := range edges {
		if !heavy[i] {
			continue
		}
		for j := 0; j < extra; j++ {
			sets[e.U].Add(next)
			sets[e.V].Add(next)
			next++
		}
		used[e.U] += extra
		used[e.V] += extra
	}
	// Private filler to reach exactly c channels per node.
	for u := 0; u < n; u++ {
		for used[u] < c-k {
			sets[u].Add(next)
			next++
			used[u]++
		}
	}
	a := newAssignment(universe, c, sets, r)
	if extra == 0 {
		return a, nil
	}
	return a, nil
}

// FromSets builds an assignment from explicit per-node global channel
// sets. Every set must have the same cardinality c (the model gives
// every transceiver exactly c channels); local labels are random
// permutations.
func FromSets(universe int, nodeSets [][]int, r *rng.Source) (*Assignment, error) {
	if len(nodeSets) == 0 {
		return nil, fmt.Errorf("chanassign: need at least one node")
	}
	if universe < 1 {
		return nil, fmt.Errorf("chanassign: universe must be >= 1, got %d", universe)
	}
	c := len(nodeSets[0])
	if c < 1 {
		return nil, fmt.Errorf("chanassign: node 0 has no channels")
	}
	sets := make([]*bitset.Set, len(nodeSets))
	for u, chans := range nodeSets {
		if len(chans) != c {
			return nil, fmt.Errorf("chanassign: node %d has %d channels, node 0 has %d", u, len(chans), c)
		}
		s := bitset.New(universe)
		for _, g := range chans {
			if g < 0 || g >= universe {
				return nil, fmt.Errorf("chanassign: node %d channel %d outside [0,%d)", u, g, universe)
			}
			if s.Contains(g) {
				return nil, fmt.Errorf("chanassign: node %d lists channel %d twice", u, g)
			}
			s.Add(g)
		}
		sets[u] = s
	}
	return newAssignment(universe, c, sets, r), nil
}

// Identical assigns every node the same c channels (the classic
// multi-channel network special case k = kmax = c). Useful as a
// degenerate regime and for COUNT tests where all nodes must meet on
// one channel.
func Identical(n, c int, r *rng.Source) (*Assignment, error) {
	if err := checkParams(n, c, c, c); err != nil {
		return nil, err
	}
	sets := make([]*bitset.Set, n)
	for u := 0; u < n; u++ {
		s := bitset.New(c)
		for g := 0; g < c; g++ {
			s.Add(g)
		}
		sets[u] = s
	}
	return newAssignment(c, c, sets, r), nil
}

// Matching builds the two-node assignment used by the Lemma 11
// reduction: nodes 0 and 1 each have c channels, overlapping on exactly
// the k pairs given by matching, where matching[i] = (a_i, b_i) means
// node 0's channel a_i is the same global channel as node 1's channel
// b_i. Channels are indices in [0, c).
func Matching(c int, pairs [][2]int, r *rng.Source) (*Assignment, error) {
	if c < 1 {
		return nil, fmt.Errorf("chanassign: c must be >= 1, got %d", c)
	}
	if len(pairs) > c {
		return nil, fmt.Errorf("chanassign: %d matched pairs exceed c = %d", len(pairs), c)
	}
	seenA := make(map[int]bool, len(pairs))
	seenB := make(map[int]bool, len(pairs))
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= c || p[1] < 0 || p[1] >= c {
			return nil, fmt.Errorf("chanassign: matching pair %v out of range [0,%d)", p, c)
		}
		if seenA[p[0]] || seenB[p[1]] {
			return nil, fmt.Errorf("chanassign: matching pair %v reuses an endpoint", p)
		}
		seenA[p[0]] = true
		seenB[p[1]] = true
	}

	// Global layout: channels 0..len(pairs)-1 are the shared ones;
	// the rest are private to one side.
	universe := 2*c - len(pairs)
	s0 := bitset.New(universe)
	s1 := bitset.New(universe)
	// l2g built explicitly here (not via newAssignment's random perm)
	// because the game fixes which local label maps to which shared
	// channel.
	l2g0 := make([]int32, c)
	l2g1 := make([]int32, c)
	for i := range l2g0 {
		l2g0[i] = -1
		l2g1[i] = -1
	}
	for i, p := range pairs {
		l2g0[p[0]] = int32(i)
		l2g1[p[1]] = int32(i)
	}
	next := int32(len(pairs))
	for l := 0; l < c; l++ {
		if l2g0[l] == -1 {
			l2g0[l] = next
			next++
		}
		if l2g1[l] == -1 {
			l2g1[l] = next
			next++
		}
	}
	for _, g := range l2g0 {
		s0.Add(int(g))
	}
	for _, g := range l2g1 {
		s1.Add(int(g))
	}

	a := &Assignment{
		Universe:      universe,
		C:             c,
		sets:          []*bitset.Set{s0, s1},
		localToGlobal: [][]int32{l2g0, l2g1},
		globalToLocal: make([][]int32, 2),
	}
	for u, l2g := range a.localToGlobal {
		g2l := make([]int32, universe)
		for i := range g2l {
			g2l[i] = -1
		}
		for l, gch := range l2g {
			g2l[gch] = int32(l)
		}
		a.globalToLocal[u] = g2l
	}
	a.buildFlat()
	return a, nil
}

func checkParams(n, c, k, kmax int) error {
	if n < 1 {
		return fmt.Errorf("chanassign: n must be >= 1, got %d", n)
	}
	if c < 1 {
		return fmt.Errorf("chanassign: c must be >= 1, got %d", c)
	}
	if k < 0 || k > c {
		return fmt.Errorf("chanassign: k must be in [0,c] = [0,%d], got %d", c, k)
	}
	if kmax < k || kmax > c {
		return fmt.Errorf("chanassign: kmax must be in [k,c] = [%d,%d], got %d", k, c, kmax)
	}
	return nil
}
