package sortalg

import (
	"cmp"
	"slices"
)

// sortedInto writes src, sorted, into dst, which must be as long, and
// leaves src as it is; what dst held before does not matter. For int64,
// uint64 (pdm.Word) and int keys the copy is the kernel's first level:
// one counting pass over src and one scatter by the top byte into dst,
// after which each bucket (about n/256 keys, in cache) is sorted in place
// by the lower digits — by lsdFinish once it holds at most lsdMax keys.
// Any other type is copied and sorted by slices.Sort. It allocates
// nothing.
func sortedInto[T cmp.Ordered](dst, src []T) {
	switch d := any(dst).(type) {
	case []int64:
		radixCopy(d, any(src).([]int64))
	case []uint64:
		radixCopy(d, any(src).([]uint64))
	case []int:
		radixCopy(d, any(src).([]int))
	default:
		copy(dst, src)
		slices.Sort(dst)
	}
}

// radixCopy sorts src into dst (of the same length): the top-byte digit
// scattered out of src, every lower one in place by radixLevel.
func radixCopy[K integer](dst, src []K) {
	flip := signFlip[K]()
	var tmp [lsdMax]K
	var head [256]int
	for _, x := range src {
		head[byte((uint64(x)^flip)>>56)]++
	}
	off := 0
	for b, c := range head {
		head[b] = off
		off += c
	}
	for _, x := range src {
		b := byte((uint64(x) ^ flip) >> 56)
		dst[head[b]] = x
		head[b]++
	}
	// head[b] is now where bucket b ends.
	lo := 0
	for _, hi := range head {
		if hi-lo > 1 {
			radixLevel(dst[lo:hi], 1, 48, flip, tmp[:])
		}
		lo = hi
	}
}

// integer is what the radix kernel sorts.
type integer interface{ ~int | ~int64 | ~uint64 }

// insertionMax is the record count at or below which a bucket is
// finished by insertion sort instead of another radix level.
const insertionMax = 64

// lsdMax is the key count at or below which a run of single-word records
// is finished by lsdFinish instead of an American-flag level. Its buffer
// is a [lsdMax]K array in the entry's frame: 16 KiB of 8-byte keys, which
// fits L1 next to the run it serves and the stack without an allocation.
const lsdMax = 2048

// radixSort sorts the len(xs)/w records of w items each that xs holds,
// in place, by their first item: an MSD radix sort, 8 bits per level
// (American-flag sort — each level counts its bucket sizes and then
// swaps records along permutation cycles into their buckets). A key is
// read as its 64-bit pattern, sign-extended, with the sign bit flipped
// for a signed type, so the digit order is the numeric order. Each level
// is O(n) and there are at most eight, so no input is quadratic; equal
// keys are not kept in order. A run of at most lsdMax single-word keys
// is finished by lsdFinish instead, two digits per call. Nothing is
// allocated: the bucket tables of a level live in its stack frame, and
// lsdFinish's buffer in this one.
func radixSort[K integer](xs []K, w int) {
	var tmp [lsdMax]K
	radixLevel(xs, w, 56, signFlip[K](), tmp[:])
}

// signFlip is what a key's 64-bit pattern is XORed with to make its digit
// order the numeric order: the sign bit for a signed type, 0 otherwise.
func signFlip[K integer]() uint64 {
	var zero K
	if ^zero < 0 {
		return 1 << 63
	}
	return 0
}

// radixLevel sorts xs (records of w items) on the digit at shift and
// every lower one: by insertion sort at most insertionMax records, by
// lsdFinish a run of at most lsdMax single-word keys with two digits
// left, and by an American-flag level otherwise. tmp is lsdFinish's
// buffer, lsdMax keys long.
func radixLevel[K integer](xs []K, w int, shift uint, flip uint64, tmp []K) {
	n := len(xs) / w
	if n <= insertionMax {
		insertionSort(xs, w)
		return
	}
	if w == 1 && n <= lsdMax && shift >= 8 {
		lsdFinish(xs, tmp, shift, flip)
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
			radixLevel(xs[lo:hi], w, shift-8, flip, tmp)
		}
		lo = hi
	}
}

// lsdFinish sorts xs (single-word keys, insertionMax < len(xs) ≤ lsdMax)
// on the digit at shift and every lower one. One counting pass takes the
// sizes for two digits, the one at shift and the one at shift−8; two
// stable scatter passes sort by them, least significant first, xs → tmp
// → xs. Every run that still ties on both is then finished on the digits
// below, which at shift 8 are none. Where both digits are constant the
// scatters are skipped, as an American-flag level skips a constant digit.
func lsdFinish[K integer](xs, tmp []K, shift uint, flip uint64) {
	n := len(xs)
	tmp = tmp[:n]
	var hi, lo [256]int
	for _, x := range xs {
		u := uint64(x) ^ flip
		hi[byte(u>>shift)]++
		lo[byte(u>>(shift-8))]++
	}
	first := uint64(xs[0]) ^ flip
	if hi[byte(first>>shift)] < n || lo[byte(first>>(shift-8))] < n {
		offHi, offLo := 0, 0
		for b := range hi {
			offHi, hi[b] = offHi+hi[b], offHi
			offLo, lo[b] = offLo+lo[b], offLo
		}
		for _, x := range xs {
			d := byte((uint64(x) ^ flip) >> (shift - 8))
			tmp[lo[d]] = x
			lo[d]++
		}
		for _, x := range tmp {
			d := byte((uint64(x) ^ flip) >> shift)
			xs[hi[d]] = x
			hi[d]++
		}
	}
	if shift == 8 {
		return
	}
	// Finish each run of keys equal on both digits; neighbours tie when
	// their XOR (the flip cancels) is zero on both.
	start, prev := 0, uint64(xs[0])
	for i, x := range xs {
		if uint16((prev^uint64(x))>>(shift-8)) != 0 {
			if i-start > 1 {
				radixLevel(xs[start:i], 1, shift-16, flip, tmp)
			}
			start = i
		}
		prev = uint64(x)
	}
	if n-start > 1 {
		radixLevel(xs[start:], 1, shift-16, flip, tmp)
	}
}

// insertionSort sorts the records of w items in xs by their first item.
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
