package chanassign

import (
	"testing"
	"testing/quick"

	"crn/internal/graph"
	"crn/internal/rng"
)

func TestSharedCoreExactOverlap(t *testing.T) {
	r := rng.New(1)
	const n, c, k = 10, 8, 3
	a, err := SharedCore(n, c, k, r)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(n)
	if err := a.Validate(g, k, k); err != nil {
		t.Fatal(err)
	}
	kMin, kMax := a.OverlapRange(g)
	if kMin != k || kMax != k {
		t.Errorf("OverlapRange = (%d,%d), want (%d,%d)", kMin, kMax, k, k)
	}
}

func TestSharedCoreParamErrors(t *testing.T) {
	r := rng.New(1)
	tests := []struct {
		name    string
		n, c, k int
	}{
		{name: "zero nodes", n: 0, c: 4, k: 2},
		{name: "zero channels", n: 4, c: 0, k: 0},
		{name: "k exceeds c", n: 4, c: 4, k: 5},
		{name: "negative k", n: 4, c: 4, k: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := SharedCore(tt.n, tt.c, tt.k, r); err == nil {
				t.Errorf("SharedCore(%d,%d,%d) succeeded, want error", tt.n, tt.c, tt.k)
			}
		})
	}
}

func TestSharedPool(t *testing.T) {
	r := rng.New(2)
	const n, c, k, pool = 12, 10, 2, 40
	a, err := SharedPool(n, c, k, pool, r)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(n)
	// Overlap is at least k and at most c by construction.
	if err := a.Validate(g, k, c); err != nil {
		t.Fatal(err)
	}
	kMin, _ := a.OverlapRange(g)
	if kMin < k {
		t.Errorf("min overlap %d < k = %d", kMin, k)
	}
	if _, err := SharedPool(4, 8, 2, 3, r); err == nil {
		t.Error("pool smaller than c-k accepted")
	}
}

func TestIdentical(t *testing.T) {
	r := rng.New(3)
	a, err := Identical(5, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(5)
	if err := a.Validate(g, 6, 6); err != nil {
		t.Fatal(err)
	}
	if a.Universe != 6 {
		t.Errorf("Universe = %d, want 6", a.Universe)
	}
}

func TestHeterogeneous(t *testing.T) {
	r := rng.New(4)
	g, err := graph.Cycle(12)
	if err != nil {
		t.Fatal(err)
	}
	const c, k, kmax = 12, 2, 6
	a, err := Heterogeneous(g, c, k, kmax, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g, k, kmax); err != nil {
		t.Fatal(err)
	}
	// Every edge must share exactly k or exactly kmax.
	heavyCount := 0
	for _, e := range g.Edges() {
		s := a.SharedCount(int(e.U), int(e.V))
		switch s {
		case k:
		case kmax:
			heavyCount++
		default:
			t.Errorf("edge (%d,%d) shares %d channels, want %d or %d", e.U, e.V, s, k, kmax)
		}
	}
	if heavyCount == 0 {
		t.Error("no heavy edges created at heavyFrac=0.5")
	}
}

func TestHeterogeneousDegenerate(t *testing.T) {
	r := rng.New(5)
	g := graph.Path(6)
	// kmax == k degenerates to uniform overlap.
	a, err := Heterogeneous(g, 5, 2, 2, 0.7, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g, 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousErrors(t *testing.T) {
	r := rng.New(6)
	g := graph.Path(4)
	if _, err := Heterogeneous(g, 5, 3, 2, 0.5, r); err == nil {
		t.Error("kmax < k accepted")
	}
	// c-k = 1 cannot host kmax-k = 3 extra channels.
	if _, err := Heterogeneous(g, 5, 4, 7, 0.5, r); err == nil {
		t.Error("infeasible extra-channel budget accepted")
	}
}

func TestLabelRoundTrip(t *testing.T) {
	r := rng.New(7)
	a, err := SharedCore(6, 9, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < a.N(); u++ {
		seen := make(map[int32]bool, a.C)
		for l := 0; l < a.C; l++ {
			g := a.Global(u, l)
			if seen[g] {
				t.Fatalf("node %d: global channel %d appears under two labels", u, g)
			}
			seen[g] = true
			if back := a.Local(u, g); int(back) != l {
				t.Fatalf("node %d: label %d -> global %d -> label %d", u, l, g, back)
			}
		}
	}
}

func TestLocalUnknownChannel(t *testing.T) {
	r := rng.New(8)
	a, err := SharedCore(3, 4, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 cannot access node 1's private channels.
	private1 := a.Global(1, 0)
	for l := 0; l < a.C; l++ {
		if a.Global(1, l) >= int32(1) { // non-core channel of node 1
			private1 = a.Global(1, l)
		}
	}
	if a.Set(0).Contains(int(private1)) {
		t.Skip("picked a shared channel; construction guarantees one private exists")
	}
	if got := a.Local(0, private1); got != -1 {
		t.Errorf("Local(0, %d) = %d, want -1", private1, got)
	}
}

func TestSharedChannels(t *testing.T) {
	a, err := FromSets(8, [][]int{{1, 5, 6}, {0, 5, 6}, {2, 3, 4}}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := a.FirstShared(0, 1); !ok || g != 5 {
		t.Errorf("FirstShared(0,1) = %d, %v; want 5, true", g, ok)
	}
	if a.SharedCount(0, 1) != 2 {
		t.Errorf("SharedCount(0,1) = %d, want 2", a.SharedCount(0, 1))
	}
	if g, ok := a.FirstShared(1, 2); ok {
		t.Errorf("FirstShared(1,2) = %d, true for disjoint sets", g)
	}
}

func TestMatching(t *testing.T) {
	r := rng.New(10)
	pairs := [][2]int{{0, 3}, {2, 1}}
	a, err := Matching(4, pairs, r)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 2 {
		t.Fatalf("N = %d, want 2", a.N())
	}
	if got := a.SharedCount(0, 1); got != 2 {
		t.Errorf("SharedCount = %d, want 2", got)
	}
	// Verify the matching is realized: node 0's local 0 == node 1's local 3.
	if a.Global(0, 0) != a.Global(1, 3) {
		t.Error("pair (0,3) not realized as a shared channel")
	}
	if a.Global(0, 2) != a.Global(1, 1) {
		t.Error("pair (2,1) not realized as a shared channel")
	}
	// Unmatched labels must not collide.
	if a.Global(0, 1) == a.Global(1, 0) {
		t.Error("unmatched labels share a global channel")
	}
	g := graph.TwoNode()
	if err := a.Validate(g, 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingErrors(t *testing.T) {
	r := rng.New(11)
	if _, err := Matching(0, nil, r); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := Matching(2, [][2]int{{0, 0}, {1, 1}, {0, 1}}, r); err == nil {
		t.Error("too many pairs accepted")
	}
	if _, err := Matching(3, [][2]int{{0, 5}}, r); err == nil {
		t.Error("out-of-range pair accepted")
	}
	if _, err := Matching(3, [][2]int{{0, 0}, {0, 1}}, r); err == nil {
		t.Error("repeated endpoint accepted")
	}
}

func TestMatchingEmpty(t *testing.T) {
	r := rng.New(12)
	a, err := Matching(3, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.SharedCount(0, 1); got != 0 {
		t.Errorf("SharedCount = %d, want 0", got)
	}
}

// TestQuickHeterogeneousValid fuzzes parameters and checks the overlap
// guarantee whenever construction succeeds.
func TestQuickHeterogeneousValid(t *testing.T) {
	f := func(seed uint64, kRaw, extraRaw uint8) bool {
		r := rng.New(seed)
		k := int(kRaw%4) + 1
		extra := int(extraRaw % 4)
		kmax := k + extra
		c := kmax + int(seed%5) + 1
		g, err := graph.GNP(10, 0.4, r)
		if err != nil {
			return true
		}
		a, err := Heterogeneous(g, c, k, kmax, 0.5, r)
		if err != nil {
			return true
		}
		return a.Validate(g, k, kmax) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickSharedPoolOverlap fuzzes pool assignments and verifies the
// min-overlap guarantee.
func TestQuickSharedPoolOverlap(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		r := rng.New(seed)
		k := int(kRaw%5) + 1
		c := k + 4
		a, err := SharedPool(8, c, k, 30, r)
		if err != nil {
			return false
		}
		g := graph.Complete(8)
		kMin, _ := a.OverlapRange(g)
		return kMin >= k && a.Validate(g, k, c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidateDetectsMismatch(t *testing.T) {
	r := rng.New(13)
	a, err := SharedCore(4, 5, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong node count.
	if err := a.Validate(graph.Star(5), 2, 2); err == nil {
		t.Error("node-count mismatch not detected")
	}
	// Too-strict overlap bounds.
	if err := a.Validate(graph.Complete(4), 3, 5); err == nil {
		t.Error("overlap below k not detected")
	}
	if err := a.Validate(graph.Complete(4), 1, 1); err == nil {
		t.Error("overlap above kmax not detected")
	}
}
