// Package bitset provides dense bitsets sized at construction time.
//
// Bitsets represent channel sets and neighbor sets throughout the
// simulator. The hot operations are membership tests and intersection
// counts (computing how many channels two nodes share), so both are
// implemented without allocation.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset over the universe [0, Len()).
// The zero value is unusable; construct with New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// NewSets returns count empty sets over the universe [0, n), backed by
// one shared word array: callers that keep one set per graph element
// pay two allocations instead of two per set.
func NewSets(count, n int) []Set {
	if n < 0 {
		n = 0
	}
	stride := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*stride)
	sets := make([]Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*stride : (i+1)*stride : (i+1)*stride], n: n}
	}
	return sets
}

// FromSlice returns a set over [0, n) containing every element of elems.
// Elements outside [0, n) are ignored.
func FromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		if e >= 0 && e < n {
			s.Add(e)
		}
	}
	return s
}

// Len returns the size of the universe.
func (s *Set) Len() int { return s.n }

// Add inserts i into the set. Out-of-range values are ignored.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set. Out-of-range values are ignored.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IntersectionCount returns |s ∩ o| without allocating.
// The sets may have different universe sizes; the intersection is over
// the common prefix.
func (s *Set) IntersectionCount(o *Set) int {
	m := len(s.words)
	if len(o.words) < m {
		m = len(o.words)
	}
	c := 0
	for i := 0; i < m; i++ {
		c += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return c
}

// FirstCommon returns the smallest element of s ∩ o and true, or
// (0, false) when the sets are disjoint. Like IntersectionCount it
// works over the common prefix of the universes and does not allocate.
func (s *Set) FirstCommon(o *Set) (int, bool) {
	m := len(s.words)
	if len(o.words) < m {
		m = len(o.words)
	}
	for i := 0; i < m; i++ {
		if w := s.words[i] & o.words[i]; w != 0 {
			return i*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	m := len(s.words)
	if len(o.words) < m {
		m = len(o.words)
	}
	for i := 0; i < m; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Union replaces s with s ∪ o. Panics if universes differ.
func (s *Set) Union(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Intersect replaces s with s ∩ o. Panics if universes differ.
func (s *Set) Intersect(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// Difference replaces s with s \ o. Panics if universes differ.
func (s *Set) Difference(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{
		words: make([]uint64, len(s.words)),
		n:     s.n,
	}
	copy(c.words, s.words)
	return c
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Equal reports whether s and o contain the same elements over the same
// universe.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Elems appends the elements of s to dst in increasing order and
// returns the extended slice. Pass nil to allocate fresh.
func (s *Set) Elems(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for each element in increasing order. Iteration
// stops early if fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// NthElem returns the n-th smallest element (0-indexed) and true, or
// (0, false) if the set has fewer than n+1 elements.
func (s *Set) NthElem(n int) (int, bool) {
	if n < 0 {
		return 0, false
	}
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if n >= c {
			n -= c
			continue
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if n == 0 {
				return wi*wordBits + b, true
			}
			n--
			w &= w - 1
		}
	}
	return 0, false
}

// String renders the set as "{a, b, c}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d != %d", s.n, o.n))
	}
}

// Matrix is a dense rows×cols bit matrix backed by a single allocation.
// It stores the adjacency structure the radio engine probes on its hot
// path: Get(r, c) is one shift-and-mask, with no per-row pointer chase
// or bounds surprises, and building the whole matrix costs one make.
// The zero value is unusable; construct with NewMatrix.
type Matrix struct {
	words  []uint64
	rows   int
	cols   int
	stride int // words per row
}

// NewMatrix returns an all-zero rows×cols bit matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	stride := (cols + wordBits - 1) / wordBits
	return &Matrix{
		words:  make([]uint64, rows*stride),
		rows:   rows,
		cols:   cols,
		stride: stride,
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Set sets bit (r, c). Out-of-range coordinates are ignored.
func (m *Matrix) Set(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return
	}
	m.words[r*m.stride+c/wordBits] |= 1 << (uint(c) % wordBits)
}

// Get reports bit (r, c). Out-of-range coordinates read as false.
func (m *Matrix) Get(r, c int) bool {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return false
	}
	return m.words[r*m.stride+c/wordBits]&(1<<(uint(c)%wordBits)) != 0
}

// Unset clears bit (r, c). Out-of-range coordinates are ignored.
func (m *Matrix) Unset(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return
	}
	m.words[r*m.stride+c/wordBits] &^= 1 << (uint(c) % wordBits)
}

// Clone returns a deep copy of m. Dynamic topology views clone the
// static adjacency matrix once per run and mutate the copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		words:  make([]uint64, len(m.words)),
		rows:   m.rows,
		cols:   m.cols,
		stride: m.stride,
	}
	copy(c.words, m.words)
	return c
}

// EqualMatrix reports whether m and o have the same shape and bits.
func (m *Matrix) EqualMatrix(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Bytes returns the backing storage size in bytes, for capacity
// gating by callers deciding whether a dense matrix is affordable.
func (m *Matrix) Bytes() int { return len(m.words) * 8 }

// Stride returns the number of words backing one row. Rows returned by
// Row have exactly this length.
func (m *Matrix) Stride() int { return m.stride }

// Row returns row r's backing words. The slice aliases the matrix:
// callers must treat it as read-only (mutate through Set/Unset) and
// must not hold it across a Clone. Out-of-range rows return nil.
//
// This is the radio engine's whole-channel resolution hook: a
// listener's neighbor row AND a channel's broadcaster row, swept with
// popcounts, resolves silence/sole-talker/contention without walking
// either adjacency or broadcaster lists.
func (m *Matrix) Row(r int) []uint64 {
	if r < 0 || r >= m.rows {
		return nil
	}
	return m.words[r*m.stride : (r+1)*m.stride : (r+1)*m.stride]
}

// EqualWords reports whether two equal-length word slices hold the
// same bits. The radio engine compares a listener's current adjacency
// row against its base-topology row to skip the partition-loss
// counterfactual when nothing incident to the listener has churned.
func EqualWords(a, b []uint64) bool {
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}

// AndCountSole intersects two equal-length word slices and returns the
// number of set bits in the intersection, capped at 2 (callers only
// distinguish silence / sole talker / contention), together with the
// bit index of the sole set bit when the count is exactly 1 (-1
// otherwise). The sweep early-exits as soon as two bits are seen.
func AndCountSole(a, b []uint64) (count int, sole int) {
	sole = -1
	for i, w := range a {
		x := w & b[i]
		if x == 0 {
			continue
		}
		c := bits.OnesCount64(x)
		count += c
		if count > 1 {
			return 2, -1
		}
		sole = i*wordBits + bits.TrailingZeros64(x)
	}
	if count != 1 {
		sole = -1
	}
	return count, sole
}
