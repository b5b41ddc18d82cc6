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
		panic(fmt.Sprintf("cgm: Owner(n=%d, v=%d, g=%d)", n, v, g))
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

// Outbox returns an outbox whose message to VP d is empty with capacity
// counts[d], all of them cut from one backing array — so a Round that
// counts its items per destination first and appends them second makes
// one allocation the size of its data instead of growing len(counts)
// slices by doubling. Messages with no items stay nil.
func Outbox[T any](counts []int) [][]T {
	total := 0
	for _, c := range counts {
		total += c
	}
	backing := make([]T, total)
	out := make([][]T, len(counts))
	off := 0
	for d, c := range counts {
		if c > 0 {
			out[d] = backing[off : off : off+c]
			off += c
		}
	}
	return out
}
