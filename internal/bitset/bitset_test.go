package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if got := s.Count(); got != 0 {
		t.Errorf("Count() = %d, want 0", got)
	}
	if s.Len() != 100 {
		t.Errorf("Len() = %d, want 100", s.Len())
	}
	for i := 0; i < 100; i++ {
		if s.Contains(i) {
			t.Fatalf("empty set Contains(%d) = true", i)
		}
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130) // spans three words
	elems := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, e := range elems {
		s.Add(e)
	}
	if got := s.Count(); got != len(elems) {
		t.Errorf("Count() = %d, want %d", got, len(elems))
	}
	for _, e := range elems {
		if !s.Contains(e) {
			t.Errorf("Contains(%d) = false, want true", e)
		}
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) = true after Remove")
	}
	if got := s.Count(); got != len(elems)-1 {
		t.Errorf("Count() = %d, want %d", got, len(elems)-1)
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	s := New(10)
	s.Add(-1)
	s.Add(10)
	s.Add(1000)
	if got := s.Count(); got != 0 {
		t.Errorf("Count() = %d after out-of-range adds, want 0", got)
	}
	if s.Contains(-1) || s.Contains(10) {
		t.Error("Contains out-of-range returned true")
	}
	s.Remove(-5) // must not panic
	s.Remove(99)
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if got := s.Count(); got != 1 {
		t.Errorf("Count() = %d, want 1", got)
	}
}

func TestFromSliceAndElems(t *testing.T) {
	in := []int{5, 1, 99, 1, 64, -3, 200}
	s := FromSlice(100, in)
	want := []int{1, 5, 64, 99}
	got := s.Elems(nil)
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
}

func TestIntersectionCount(t *testing.T) {
	tests := []struct {
		name string
		a, b []int
		want int
	}{
		{name: "disjoint", a: []int{1, 2, 3}, b: []int{4, 5, 6}, want: 0},
		{name: "identical", a: []int{1, 64, 120}, b: []int{1, 64, 120}, want: 3},
		{name: "partial", a: []int{0, 63, 64}, b: []int{63, 64, 65}, want: 2},
		{name: "empty", a: nil, b: []int{1}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := FromSlice(128, tt.a)
			b := FromSlice(128, tt.b)
			if got := a.IntersectionCount(b); got != tt.want {
				t.Errorf("IntersectionCount = %d, want %d", got, tt.want)
			}
			if got := b.IntersectionCount(a); got != tt.want {
				t.Errorf("IntersectionCount (reversed) = %d, want %d", got, tt.want)
			}
			if got, want := a.Intersects(b), tt.want > 0; got != want {
				t.Errorf("Intersects = %v, want %v", got, want)
			}
		})
	}
}

func TestIntersectionCountDifferentUniverses(t *testing.T) {
	a := FromSlice(64, []int{1, 2, 63})
	b := FromSlice(200, []int{2, 63, 150})
	if got := a.IntersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d, want 2", got)
	}
}

func TestSetOperations(t *testing.T) {
	a := FromSlice(100, []int{1, 2, 3, 70})
	b := FromSlice(100, []int{3, 4, 70, 99})

	u := a.Clone()
	u.Union(b)
	wantU := FromSlice(100, []int{1, 2, 3, 4, 70, 99})
	if !u.Equal(wantU) {
		t.Errorf("Union = %v, want %v", u, wantU)
	}

	i := a.Clone()
	i.Intersect(b)
	wantI := FromSlice(100, []int{3, 70})
	if !i.Equal(wantI) {
		t.Errorf("Intersect = %v, want %v", i, wantI)
	}

	d := a.Clone()
	d.Difference(b)
	wantD := FromSlice(100, []int{1, 2})
	if !d.Equal(wantD) {
		t.Errorf("Difference = %v, want %v", d, wantD)
	}
}

func TestUnionPanicsOnUniverseMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Union with mismatched universes did not panic")
		}
	}()
	New(10).Union(New(20))
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice(100, []int{1, 2})
	b := a.Clone()
	b.Add(50)
	if a.Contains(50) {
		t.Error("mutating clone affected original")
	}
	if !b.Contains(1) || !b.Contains(2) {
		t.Error("clone missing original elements")
	}
}

func TestClear(t *testing.T) {
	s := FromSlice(100, []int{1, 2, 3})
	s.Clear()
	if s.Count() != 0 {
		t.Errorf("Count after Clear = %d, want 0", s.Count())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice(100, []int{1, 2, 3, 4, 5})
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if len(seen) != 3 {
		t.Errorf("ForEach visited %d elements, want 3", len(seen))
	}
}

func TestNthElem(t *testing.T) {
	s := FromSlice(200, []int{3, 64, 65, 190})
	tests := []struct {
		n      int
		want   int
		wantOK bool
	}{
		{0, 3, true},
		{1, 64, true},
		{2, 65, true},
		{3, 190, true},
		{4, 0, false},
		{-1, 0, false},
	}
	for _, tt := range tests {
		got, ok := s.NthElem(tt.n)
		if ok != tt.wantOK || (ok && got != tt.want) {
			t.Errorf("NthElem(%d) = (%d, %v), want (%d, %v)", tt.n, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestString(t *testing.T) {
	s := FromSlice(10, []int{1, 3})
	if got, want := s.String(), "{1, 3}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := New(4).String(), "{}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// model is a map-based reference implementation used by property tests.
type model map[int]bool

func applyOps(n int, ops []opRecord) (*Set, model) {
	s := New(n)
	m := make(model)
	for _, op := range ops {
		e := op.Elem % n
		if e < 0 {
			e = -e % n
		}
		switch op.Kind % 2 {
		case 0:
			s.Add(e)
			m[e] = true
		case 1:
			s.Remove(e)
			delete(m, e)
		}
	}
	return s, m
}

type opRecord struct {
	Kind int
	Elem int
}

// TestQuickAgainstModel checks that arbitrary Add/Remove sequences agree
// with a map-based model on Count, Contains, and Elems.
func TestQuickAgainstModel(t *testing.T) {
	f := func(ops []opRecord) bool {
		const n = 150
		s, m := applyOps(n, ops)
		if s.Count() != len(m) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Contains(i) != m[i] {
				return false
			}
		}
		elems := s.Elems(nil)
		if len(elems) != len(m) {
			return false
		}
		for _, e := range elems {
			if !m[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectionCount checks |a ∩ b| against a model for random
// element sets.
func TestQuickIntersectionCount(t *testing.T) {
	f := func(aIn, bIn []uint8) bool {
		const n = 256
		a, b := New(n), New(n)
		am, bm := make(model), make(model)
		for _, e := range aIn {
			a.Add(int(e))
			am[int(e)] = true
		}
		for _, e := range bIn {
			b.Add(int(e))
			bm[int(e)] = true
		}
		want := 0
		for e := range am {
			if bm[e] {
				want++
			}
		}
		return a.IntersectionCount(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionIntersectDifferenceLaws verifies algebraic identities:
// |A∪B| + |A∩B| == |A| + |B|, and A\B ∪ A∩B == A.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(aIn, bIn []uint8) bool {
		const n = 256
		a := New(n)
		b := New(n)
		for _, e := range aIn {
			a.Add(int(e))
		}
		for _, e := range bIn {
			b.Add(int(e))
		}
		union := a.Clone()
		union.Union(b)
		inter := a.Clone()
		inter.Intersect(b)
		diff := a.Clone()
		diff.Difference(b)

		if union.Count()+inter.Count() != a.Count()+b.Count() {
			return false
		}
		recon := diff.Clone()
		recon.Union(inter)
		return recon.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNthElemMatchesElems(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New(300)
		for i := 0; i < 40; i++ {
			s.Add(rnd.Intn(300))
		}
		elems := s.Elems(nil)
		for i, e := range elems {
			got, ok := s.NthElem(i)
			if !ok || got != e {
				t.Fatalf("NthElem(%d) = (%d, %v), want (%d, true)", i, got, ok, e)
			}
		}
		if _, ok := s.NthElem(len(elems)); ok {
			t.Fatal("NthElem past end returned ok")
		}
	}
}

func BenchmarkIntersectionCount(b *testing.B) {
	a := New(1024)
	c := New(1024)
	for i := 0; i < 1024; i += 3 {
		a.Add(i)
	}
	for i := 0; i < 1024; i += 5 {
		c.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.IntersectionCount(c)
	}
}

func TestMatrixSetGet(t *testing.T) {
	m := NewMatrix(5, 130) // cols span multiple words
	if m.Rows() != 5 || m.Cols() != 130 {
		t.Fatalf("dims = %dx%d, want 5x130", m.Rows(), m.Cols())
	}
	pairs := [][2]int{{0, 0}, {0, 129}, {4, 63}, {4, 64}, {2, 65}}
	for _, p := range pairs {
		m.Set(p[0], p[1])
	}
	for _, p := range pairs {
		if !m.Get(p[0], p[1]) {
			t.Errorf("Get(%d,%d) = false after Set", p[0], p[1])
		}
	}
	if m.Get(1, 0) || m.Get(0, 1) || m.Get(3, 64) {
		t.Error("unset bits read true")
	}
}

func TestMatrixOutOfRange(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(-1, 0)
	m.Set(0, -1)
	m.Set(3, 0)
	m.Set(0, 3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if m.Get(r, c) {
				t.Fatalf("out-of-range Set leaked into (%d,%d)", r, c)
			}
		}
	}
	if m.Get(-1, 0) || m.Get(0, 3) {
		t.Error("out-of-range Get returned true")
	}
	if NewMatrix(-1, -1).Bytes() != 0 {
		t.Error("negative dims should yield an empty matrix")
	}
}

// TestQuickFirstCommon checks FirstCommon against the smallest element
// of the modelled intersection.
func TestQuickFirstCommon(t *testing.T) {
	f := func(aIn, bIn []uint8) bool {
		const n = 256
		a, b := New(n), New(n)
		bm := make(model)
		for _, e := range aIn {
			a.Add(int(e))
		}
		for _, e := range bIn {
			b.Add(int(e))
			bm[int(e)] = true
		}
		want, wantOK := 0, false
		for _, e := range a.Elems(nil) {
			if bm[e] {
				want, wantOK = e, true
				break
			}
		}
		got, ok := a.FirstCommon(b)
		return ok == wantOK && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNewSetsIndependent checks the sets NewSets returns share backing
// storage but not elements: writes to one never show in another.
func TestNewSetsIndependent(t *testing.T) {
	sets := NewSets(3, 70)
	sets[1].Add(0)
	sets[1].Add(69)
	for i := range sets {
		if sets[i].Len() != 70 {
			t.Fatalf("set %d: Len = %d, want 70", i, sets[i].Len())
		}
		want := 0
		if i == 1 {
			want = 2
		}
		if got := sets[i].Count(); got != want {
			t.Errorf("set %d: Count = %d, want %d", i, got, want)
		}
	}
	if len(NewSets(0, 10)) != 0 {
		t.Error("NewSets(0, n) returned sets")
	}
}
