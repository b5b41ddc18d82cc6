package sortalg

import (
	"cmp"
	"slices"
)

// sortKeys sorts xs ascending in place: int64, uint64 (pdm.Word) and int
// slices through the radix kernel, any other type through slices.Sort
// (floats keep it because a NaN has no place in a radix order). It is the
// one local sort of the package's key paths.
func sortKeys[T cmp.Ordered](xs []T) {
	switch s := any(xs).(type) {
	case []int64:
		radixSort(s, 1)
	case []uint64:
		radixSort(s, 1)
	case []int:
		radixSort(s, 1)
	default:
		slices.Sort(xs)
	}
}

// integer is what the radix kernel sorts.
type integer interface{ ~int | ~int64 | ~uint64 }

// insertionMax is the record count at or below which a bucket is
// finished by insertion sort instead of another radix level.
const insertionMax = 64

// radixSort sorts the len(xs)/w records of w items each that xs holds,
// in place, by their first item: an MSD radix sort, 8 bits per level
// (American-flag sort — each level counts its bucket sizes and then
// swaps records along permutation cycles into their buckets). A key is
// read as its 64-bit pattern, sign-extended, with the sign bit flipped
// for a signed type, so the digit order is the numeric order. Each level
// is O(n) and there are at most eight, so no input is quadratic; equal
// keys are not kept in order. Nothing is allocated: the bucket tables of
// a level live in its stack frame.
// emcgm:hotpath
func radixSort[K integer](xs []K, w int) {
	var zero K
	var flip uint64
	if ^zero < 0 {
		flip = 1 << 63
	}
	radixLevel(xs, w, 56, flip)
}

// radixLevel sorts xs (records of w items) on the digit at shift and
// every lower one.
// emcgm:hotpath
func radixLevel[K integer](xs []K, w int, shift uint, flip uint64) {
	n := len(xs) / w
	if n <= insertionMax {
		insertionSort(xs, w)
		return
	}
	// head[b] is the next unfilled item of bucket b, end[b] one past its
	// last; both are item offsets, so a record moves as w items.
	var head, end [256]int
	for {
		for i := 0; i < len(xs); i += w {
			end[byte((uint64(xs[i])^flip)>>shift)]++
		}
		first := byte((uint64(xs[0]) ^ flip) >> shift)
		if end[first] < n {
			break
		}
		// Every record has this digit: nothing moves at this level.
		if shift == 0 {
			return
		}
		end[first] = 0
		shift -= 8
	}
	off := 0
	for b := range end {
		head[b] = off
		off += end[b] * w
		end[b] = off
	}
	for b := range end {
		for i := head[b]; i < end[b]; i = head[b] {
			d := byte((uint64(xs[i]) ^ flip) >> shift)
			if w == 1 {
				// Carry the item along its cycle in a register.
				x := xs[i]
				for int(d) != b {
					j := head[d]
					head[d]++
					x, xs[j] = xs[j], x
					d = byte((uint64(x) ^ flip) >> shift)
				}
				xs[i] = x
			} else {
				for int(d) != b {
					j := head[d]
					head[d] += w
					for k := 0; k < w; k++ {
						xs[i+k], xs[j+k] = xs[j+k], xs[i+k]
					}
					d = byte((uint64(xs[i]) ^ flip) >> shift)
				}
			}
			head[b] += w
		}
	}
	if shift == 0 {
		return
	}
	lo := 0
	for _, hi := range end {
		if hi-lo > w {
			radixLevel(xs[lo:hi], w, shift-8, flip)
		}
		lo = hi
	}
}

// insertionSort sorts the records of w items in xs by their first item.
// emcgm:hotpath
func insertionSort[K integer](xs []K, w int) {
	if w == 1 {
		for i := 1; i < len(xs); i++ {
			x := xs[i]
			j := i
			for ; j > 0 && x < xs[j-1]; j-- {
				xs[j] = xs[j-1]
			}
			xs[j] = x
		}
		return
	}
	for i := w; i < len(xs); i += w {
		for j := i; j > 0 && xs[j] < xs[j-w]; j -= w {
			for k := 0; k < w; k++ {
				xs[j+k], xs[j-w+k] = xs[j-w+k], xs[j+k]
			}
		}
	}
}
