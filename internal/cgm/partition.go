package cgm

import "fmt"

// PartRange returns the half-open range [lo, hi) of global indices owned
// by VP i under the balanced block distribution of n items over v
// processors: the first n mod v processors hold ⌈n/v⌉ items, the rest
// ⌊n/v⌋.
func PartRange(n, v, i int) (lo, hi int) {
	if v < 1 || i < 0 || i >= v {
		panic(fmt.Sprintf("cgm: PartRange(n=%d, v=%d, i=%d)", n, v, i))
	}
	q, r := n/v, n%v
	if i < r {
		lo = i * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (i-r)*q
	return lo, lo + q
}

// Owner returns the VP owning global index g under the balanced block
// distribution of n items over v processors (inverse of PartRange).
func Owner(n, v, g int) int {
	if g < 0 || g >= n {
		panic(ownerRange{n, v, g})
	}
	q, r := n/v, n%v
	head := r * (q + 1)
	if g < head {
		return g / (q + 1)
	}
	if q == 0 {
		// n < v and g >= head is impossible since head = n; guard anyway.
		return r
	}
	return r + (g-head)/q
}

// Owners is Owner precomputed for one (n, v): a lookup divides by
// nothing. The index space is cut into cells of 2^shift ≤ ⌊n/v⌋ indices,
// so a cell meets at most two partitions (every partition is at least as
// long as a cell); first[c] is the owner of cell c's first index and
// lo[k] is PartRange's lo of VP k, with lo[v] = n. When n < v the cells
// are single indices.
type Owners struct {
	n, v  int
	shift uint
	first []int
	lo    []int
}

// NewOwners returns the owner table of n items over v processors.
func NewOwners(n, v int) Owners {
	if v < 1 || n < 0 {
		panic(fmt.Sprintf("cgm: NewOwners(n=%d, v=%d)", n, v))
	}
	o := Owners{n: n, v: v, lo: make([]int, v+1)}
	for k := range v {
		o.lo[k], _ = PartRange(n, v, k)
	}
	o.lo[v] = n
	for 2<<o.shift <= n/v {
		o.shift++
	}
	o.first = make([]int, (n+1<<o.shift-1)>>o.shift)
	k := 0
	for c := range o.first {
		for c<<o.shift >= o.lo[k+1] {
			k++
		}
		o.first[c] = k
	}
	return o
}

// Owner returns the VP owning global index g; it panics for g outside
// [0, n), as the one-off Owner does.
func (o Owners) Owner(g int) int {
	if uint(g) >= uint(o.n) {
		panic(ownerRange{o.n, o.v, g})
	}
	k := o.first[g>>o.shift]
	if g >= o.lo[k+1] {
		k++
	}
	return k
}

// ownerRange is the panic of an owner lookup outside [0, n): a value, not
// a formatted string, so that Owners.Owner stays cheap enough to inline.
type ownerRange struct{ n, v, g int }

func (e ownerRange) Error() string {
	return fmt.Sprintf("cgm: Owner(n=%d, v=%d, g=%d)", e.n, e.v, e.g)
}

// Scatter splits items into v partitions under the balanced block
// distribution. The partitions alias the input slice.
func Scatter[T any](items []T, v int) [][]T {
	parts := make([][]T, v)
	for i := 0; i < v; i++ {
		lo, hi := PartRange(len(items), v, i)
		parts[i] = items[lo:hi]
	}
	return parts
}
