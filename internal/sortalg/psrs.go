// Package sortalg implements sorting for both sides of the paper's
// comparison:
//
//   - Sorter: a deterministic CGM sorting program (sorting by regular
//     sampling, λ = O(1) communication rounds) standing in for Goodrich's
//     CGM sort — the algorithm the paper simulates to obtain its
//     O(N/(pDB)) external sorting result (Figure 5, Group A, row 1).
//   - MergeSort: a classical multiway external mergesort on the Parallel
//     Disk Model — the "previous result" baseline whose I/O complexity
//     carries the (N/DB)·log_{M/B}(N/B) factor.
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs must yield bit-identical I/O schedules and op counts.
package sortalg

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/wordcodec"
)

// Sorter is the CGM sorting-by-regular-sampling program. It uses two
// communication rounds (samples to everyone → buckets) and O(N/v) local
// memory per processor, requiring N ≳ v³ for balanced buckets — exactly
// the coarse-grained slackness (N > v^κ, κ ≤ 3) the paper's Theorem 4
// assumes, and what keeps the all-gather of samples (h = v² items) within
// an h-relation of N/v. The output is globally sorted across virtual
// processors in VP order; output partitions are splitter ranges, so their
// sizes may differ from the input partitions. Keys compare by cmp.Less
// throughout, so floats come out in slices.Sort's order, NaNs first.
type Sorter[T cmp.Ordered] struct{}

// Init stores a sorted copy of the partition: the copy Init owes the
// caller and the local sort are one pass (sortedInto), into scratch the
// runtime lends, since the State only lives until round 0 has sampled it.
func (Sorter[T]) Init(vp *cgm.VP[T], input []T) {
	vp.State = vp.Scratch(len(input))
	sortedInto(vp.State, input)
}

// Round implements the three PSRS supersteps.
func (Sorter[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	v := vp.V
	switch round {
	case 0:
		// Init left the partition sorted; send v regular samples to
		// every VP.
		if v == 1 {
			return nil, true
		}
		m := len(vp.State)
		var samples []T
		if m <= v {
			samples = append([]T(nil), vp.State...)
		} else {
			samples = make([]T, v)
			for k := 0; k < v; k++ {
				samples[k] = vp.State[k*m/v]
			}
		}
		out := make([][]T, v)
		for d := range out {
			out[d] = samples
		}
		return out, false

	case 1:
		// Every VP holds the same samples in the same source order, so
		// every VP picks the same v−1 splitters; it cuts its sorted data by
		// them and bucket k goes to VP k. Bucket k = (splitter[k-1],
		// splitter[k]]. A bucket is a view of State, capped so that no
		// append can reach the next one: the engine copies out of its
		// decode arena whatever outlives the superstep.
		splitters := pickSplitters(inbox, v)
		out := make([][]T, v)
		lo := 0
		for k := 0; k < v; k++ {
			hi := len(vp.State)
			if k < len(splitters) {
				// First index with State[i] > splitters[k].
				hi = max(lo, upperBound(vp.State, splitters[k]))
			}
			out[k] = vp.State[lo:hi:hi]
			lo = hi
		}
		vp.State = vp.State[:0]
		return out, false

	default:
		// Merge the received sorted runs.
		runs := make([][]T, 0, v)
		total := 0
		for _, m := range inbox {
			if len(m) > 0 {
				runs = append(runs, m)
				total += len(m)
			}
		}
		vp.State = mergeRuns(runs, total, vp.Scratch)
		return nil, true
	}
}

// pickSplitters sorts the samples of all v sources and takes the v−1
// regular splitters among them (zero values when nobody had a sample). It
// copies: an inbox is not the receiver's to reorder.
func pickSplitters[T cmp.Ordered](inbox [][]T, v int) []T {
	samples := slices.Concat(inbox...)
	sortKeys(samples)
	splitters := make([]T, v-1)
	if s := len(samples); s > 0 {
		for k := range splitters {
			splitters[k] = samples[(k+1)*s/v]
		}
	}
	return splitters
}

// Output returns the VP's sorted range.
func (Sorter[T]) Output(vp *cgm.VP[T]) []T { return vp.State }

// MaxContextItems declares μ: the local partition, then the merged range,
// which regular sampling bounds by about 2N/v (we allow 5/2 for skew
// slack). The v² samples every VP gathers arrive in its inbox and never
// enter State; their term stays so that context addresses do not move.
func (Sorter[T]) MaxContextItems(n, v int) int {
	return 5*((n+v-1)/v)/2 + v*v + v + 8
}

// upperBound returns the first index i with xs[i] > key (xs sorted), in
// the order of cmp.Less that sorted xs: NaNs first and equal to each other.
func upperBound[T cmp.Ordered](xs []T, key T) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if !cmp.Less(key, xs[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mergeRuns k-way merges sorted runs of total items in all by repeated
// pairwise merging of neighbours with mergeTwo, stably (on ties the
// earlier run wins). Every level merges out of one total-sized buffer into
// the other: the one the last level writes is the result and is allocated,
// the other, needed from three runs up, is borrowed. A single run is
// returned as it is. runs is overwritten.
func mergeRuns[T cmp.Ordered](runs [][]T, total int, borrow func(n int) []T) []T {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	// Level 1 writes dst, level 2 src, and so on: dst is the result when
	// the level count, ⌈log₂ len(runs)⌉, is odd.
	dst := make([]T, total)
	var src []T
	if len(runs) > 2 {
		src = borrow(total)
		if bits.Len(uint(len(runs)-1))%2 == 0 {
			dst, src = src, dst
		}
	}
	for len(runs) > 1 {
		n, off := 0, 0
		for i := 0; i < len(runs); i += 2 {
			var m int
			if i+1 < len(runs) {
				m = mergeTwo(dst[off:], runs[i], runs[i+1])
			} else {
				// The odd run is copied along: left behind in src, it
				// would be merged over two levels on, when src is dst
				// again.
				m = copy(dst[off:], runs[i])
			}
			runs[n] = dst[off : off+m]
			n++
			off += m
		}
		runs = runs[:n]
		dst, src = src, dst
	}
	return runs[0]
}

// mergeTwo merges sorted a and b into out, which must hold them both, and
// returns the number of items written. It merges from both ends at once:
// each step writes the smaller head at the front of out and the larger
// tail at the back, two chains that do not wait for each other, and which
// run gives an item is a 0/1 index, not a branch on the data. On a tie the
// front takes a's item and the back b's, so the merge is stable. Items
// compare by cmp.Less, a strict weak order on every cmp.Ordered type
// (NaNs first, and equal to each other), which is what keeps the two ends
// from taking the same item. Once one run is used up, the rest of the
// other is copied.
func mergeTwo[T cmp.Ordered](out, a, b []T) int {
	n := len(a) + len(b)
	i, j := 0, 0                 // the heads of a and b
	ia, jb := len(a)-1, len(b)-1 // their tails
	lo, hi := 0, n-1
	for i <= ia && j <= jb {
		x, y := a[i], b[j]
		f := b2i(cmp.Less(y, x)) // 1: b's head is the smaller
		out[lo] = [2]T{x, y}[f]
		i += 1 - f
		j += f
		lo++
		x, y = a[ia], b[jb]
		t := b2i(cmp.Less(y, x)) // 1: a's tail is the larger
		out[hi] = [2]T{y, x}[t]
		ia -= t
		jb -= 1 - t
		hi--
	}
	lo += copy(out[lo:], a[i:ia+1])
	copy(out[lo:], b[j:jb+1])
	return n
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

// EMSortConfig fills sensible EM-CGM limits for sorting n items: bucket
// messages are ≈ N/v² for well-spread keys (Theorem 4's parameter range);
// we allow 5/2× plus v + 16 for skew. Heavily skewed inputs should set
// Balanced.
// A cfg with V < 1 is returned as it came, for the run's own Validate to
// report.
func EMSortConfig(cfg core.Config, n int) core.Config {
	v := cfg.V
	if v < 1 {
		return cfg
	}
	if cfg.MaxMsgItems == 0 {
		cfg.MaxMsgItems = 5*((n+v*v-1)/(v*v))/2 + v + 16
	}
	if cfg.MaxHItems == 0 {
		cfg.MaxHItems = 3*((n+v-1)/v) + v*v + v + 16
	}
	return cfg
}

// EMSort runs the CGM sorter under the EM-CGM simulation (RunPar) and
// returns the sorted keys along with the machine's accounting.
func EMSort[T cmp.Ordered](keys []T, codec wordcodec.Codec[T], cfg core.Config) ([]T, *core.Result[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = EMSortConfig(cfg, len(keys))
	res, err := core.RunPar[T](Sorter[T]{}, codec, cfg, cgm.Scatter(keys, cfg.V))
	if err != nil {
		return nil, nil, err
	}
	return res.Output(), res, nil
}
