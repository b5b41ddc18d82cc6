// Package sortalg implements sorting for both sides of the paper's
// comparison:
//
//   - Sorter: a deterministic CGM sorting program (sorting by regular
//     sampling, λ = O(1) communication rounds) standing in for Goodrich's
//     CGM sort — the algorithm the paper simulates to obtain its
//     O(N/(pDB)) external sorting result (Figure 5, Group A, row 1).
//     SorterFunc is the same program under a comparison order, which the
//     geometry programs (Group B) sort their records by.
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
	"sort"

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

// SorterFunc is Sorter's program under a caller's order: Cmp(a, b) is
// negative, zero or positive as a sorts before, with or after b, a strict
// weak order as slices.SortFunc takes. The rounds, the samples, the
// splitters and the bucket cuts are Sorter's; only the local sorts, the
// cut's search and the merge compare through Cmp. Items that Cmp calls
// equal may come out in any order, so a caller that needs the output to
// be a function of the input alone makes Cmp total.
type SorterFunc[T any] struct{ Cmp func(a, b T) int }

// order is what the PSRS rounds ask of a program's order: the kernels
// that compare. Sorter's are the radix kernel and the branch-free merge on
// cmp.Less; SorterFunc's go through its Cmp. The rounds call a kernel
// through the interface once per call, never per comparison.
type order[T any] interface {
	sortInto(dst, src []T)        // the local sort, copying src into dst
	sortSamples(xs []sample[T])   // the sample sort by key, stable, in place
	upperBound(xs []T, key T) int // the first i with xs[i] after key
	lowerBound(xs []T, key T) int // the first i with xs[i] not before key
	mergeTwo(out, a, b []T) int   // a stable merge of two sorted runs
}

// sample is a regular sample with where it was drawn: the VP it came from
// and its index among that VP's samples. The receiver knows both from
// where the sample sits in its inbox, so no tag travels.
type sample[T any] struct {
	key      T
	src, idx int
}

func (Sorter[T]) sortInto(dst, src []T) { sortedInto(dst, src) }
func (Sorter[T]) sortSamples(xs []sample[T]) {
	slices.SortStableFunc(xs, func(a, b sample[T]) int { return cmp.Compare(a.key, b.key) })
}
func (Sorter[T]) upperBound(xs []T, key T) int { return upperBound(xs, key) }
func (Sorter[T]) lowerBound(xs []T, key T) int { return lowerBound(xs, key) }
func (Sorter[T]) mergeTwo(out, a, b []T) int   { return mergeTwo(out, a, b) }

func (s SorterFunc[T]) sortInto(dst, src []T) {
	copy(dst, src)
	slices.SortFunc(dst, s.Cmp)
}

func (s SorterFunc[T]) sortSamples(xs []sample[T]) {
	slices.SortStableFunc(xs, func(a, b sample[T]) int { return s.Cmp(a.key, b.key) })
}

func (s SorterFunc[T]) upperBound(xs []T, key T) int {
	return sort.Search(len(xs), func(i int) bool { return s.Cmp(key, xs[i]) < 0 })
}

func (s SorterFunc[T]) lowerBound(xs []T, key T) int {
	return sort.Search(len(xs), func(i int) bool { return s.Cmp(xs[i], key) >= 0 })
}

// mergeTwo merges a and b into out, stably: on a tie a's item goes first.
func (s SorterFunc[T]) mergeTwo(out, a, b []T) int {
	i, j, k := 0, 0, 0
	for ; i < len(a) && j < len(b); k++ {
		if s.Cmp(b[j], a[i]) < 0 {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
	}
	k += copy(out[k:], a[i:])
	return k + copy(out[k:], b[j:])
}

// Init stores a sorted copy of the partition: the copy Init owes the
// caller and the local sort are one pass, into scratch the runtime lends,
// since the State only lives until round 0 has sampled it.
func (s Sorter[T]) Init(vp *cgm.VP[T], input []T) { psrsInit[T](s, vp, input) }

// Round implements the three PSRS supersteps.
func (s Sorter[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	return psrsRound[T](s, vp, round, inbox, nil)
}

// Output returns the VP's sorted range.
func (Sorter[T]) Output(vp *cgm.VP[T]) []T { return vp.State }

// MaxContextItems declares μ: the local partition, then the merged range,
// which regular sampling bounds by about 2N/v (we allow 5/2 for skew
// slack). The v² samples every VP gathers arrive in its inbox and never
// enter State; their term stays so that context addresses do not move.
func (Sorter[T]) MaxContextItems(n, v int) int { return psrsContextItems(n, v) }

// Init is Sorter.Init under Cmp.
func (s SorterFunc[T]) Init(vp *cgm.VP[T], input []T) { psrsInit[T](s, vp, input) }

// Round is Sorter.Round under Cmp.
func (s SorterFunc[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	return psrsRound[T](s, vp, round, inbox, nil)
}

// Output returns the VP's sorted range.
func (SorterFunc[T]) Output(vp *cgm.VP[T]) []T { return vp.State }

// MaxContextItems is Sorter's μ.
func (SorterFunc[T]) MaxContextItems(n, v int) int { return psrsContextItems(n, v) }

func psrsContextItems(n, v int) int { return 5*((n+v-1)/v)/2 + v*v + v + 8 }

func psrsInit[T any](o order[T], vp *cgm.VP[T], input []T) {
	vp.State = vp.Scratch(len(input))
	o.sortInto(vp.State, input)
}

// psrsRound is the one body of both programs' rounds, under o's order. d
// is where an EMSort delivers (nil: a program on its own, whose last
// round merges into memory of its own).
func psrsRound[T any](o order[T], vp *cgm.VP[T], round int, inbox [][]T, d *delivery[T]) ([][]T, bool) {
	v := vp.V
	switch round {
	case 0:
		// Init left the partition sorted; send v regular samples to
		// every VP.
		if v == 1 {
			return nil, true
		}
		m := len(vp.State)
		samples := make([]T, min(m, v))
		for i := range samples {
			samples[i] = vp.State[samplePos(m, v, i)]
		}
		out := make([][]T, v)
		for j := range out {
			out[j] = samples
		}
		return out, false

	case 1:
		// Every VP holds the same samples in the same source order, so
		// every VP picks the same v−1 splitters; it cuts its sorted data by
		// them and bucket k goes to VP k. Bucket k = (splitter[k-1],
		// splitter[k]] in the order of (key, source VP, position), so a run
		// of equal keys is cut where its sample was drawn, not all sent to
		// one VP. A bucket is a view of State, capped so that no append can
		// reach the next one: the engine copies out of its decode arena
		// whatever outlives the superstep.
		splitters := pickSplitters(o, inbox, v)
		out := make([][]T, v)
		lo, m := 0, len(vp.State)
		for k := 0; k < v; k++ {
			hi := m
			if k < len(splitters) {
				hi = min(max(lo, cut(o, vp.State, vp.ID, v, splitters[k])), m)
			}
			out[k] = vp.State[lo:hi:hi]
			if d != nil {
				d.cuts[vp.ID*v+k] = hi - lo
			}
			lo = hi
		}
		vp.State = vp.State[:0]
		return out, false

	default:
		// Merge the received sorted runs, under an EMSort straight into
		// the VP's range of the caller's result.
		runs := make([][]T, 0, v)
		total := 0
		for _, m := range inbox {
			if len(m) > 0 {
				runs = append(runs, m)
				total += len(m)
			}
		}
		var dst []T
		if d != nil {
			dst = d.at(vp.ID, v, total)
		} else {
			dst = make([]T, total)
		}
		mergeRuns(o, runs, dst, vp.Scratch)
		vp.State = dst
		return nil, true
	}
}

// samplePos is the position in a sorted partition of m items of the i-th
// of the VP's regular samples to v VPs: every item when m ≤ v.
func samplePos(m, v, i int) int {
	if m <= v {
		return i
	}
	return i * m / v
}

// pickSplitters sorts the samples of all v sources, each tagged with its
// source and index, stably by key — so equal keys stay in (source, index)
// order — and takes the v−1 regular splitters among them (zero values
// when nobody had a sample). It copies: an inbox is not the receiver's to
// reorder.
func pickSplitters[T any](o order[T], inbox [][]T, v int) []sample[T] {
	n := 0
	for _, msg := range inbox {
		n += len(msg)
	}
	samples := make([]sample[T], 0, n)
	for src, msg := range inbox {
		for i, key := range msg {
			samples = append(samples, sample[T]{key, src, i})
		}
	}
	o.sortSamples(samples)
	splitters := make([]sample[T], v-1)
	if s := len(samples); s > 0 {
		for k := range splitters {
			splitters[k] = samples[(k+1)*s/v]
		}
	}
	return splitters
}

// cut returns where VP id of v ends its bucket at splitter sp in its
// sorted State: past every item at or before sp in the order of (key,
// source VP, position). A VP before the splitter's source keeps the keys
// equal to sp's, one after it passes them on, and the source itself cuts
// just past the sample. The caller clamps the cut to [lo, len(st)], which
// also covers the zero splitter of a run without samples.
func cut[T any](o order[T], st []T, id, v int, sp sample[T]) int {
	switch {
	case id < sp.src:
		return o.upperBound(st, sp.key)
	case id > sp.src:
		return o.lowerBound(st, sp.key)
	}
	return samplePos(len(st), v, sp.idx) + 1
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

// lowerBound returns the first index i with xs[i] ≥ key (xs sorted), in
// cmp.Less's order.
func lowerBound[T cmp.Ordered](xs []T, key T) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp.Less(xs[mid], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mergeRuns k-way merges sorted runs into dst, which holds them all, by
// repeated pairwise merging of neighbours with o's mergeTwo, stably (on
// ties the earlier run wins). Every level merges out of one dst-sized
// buffer into the other: the last level writes dst, and the other buffer,
// needed from three runs up, is borrowed. A single run is copied. runs is
// overwritten.
func mergeRuns[T any](o order[T], runs [][]T, dst []T, borrow func(n int) []T) {
	switch len(runs) {
	case 0:
		return
	case 1:
		copy(dst, runs[0])
		return
	}
	// Level 1 writes dst, level 2 src, and so on: dst is written last when
	// the level count, ⌈log₂ len(runs)⌉, is odd.
	var src []T
	if len(runs) > 2 {
		src = borrow(len(dst))
		if bits.Len(uint(len(runs)-1))%2 == 0 {
			dst, src = src, dst
		}
	}
	for len(runs) > 1 {
		n, off := 0, 0
		for i := 0; i < len(runs); i += 2 {
			var m int
			if i+1 < len(runs) {
				m = o.mergeTwo(dst[off:], runs[i], runs[i+1])
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
// we allow 5/2× plus v + 16 for skew. Inputs whose keys are not spread —
// sorted or reversed runs, few distinct values, a value most keys share,
// Zipf-skewed keys — should set Balanced: the bucket cuts break ties by
// source VP and position, so every such input sorts in BalancedRouting's
// bounded messages.
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
// returns the sorted keys along with the machine's accounting. The sort
// delivers in place: each VP's last merge level writes its bucket straight
// into the returned slice, so the Result's Outputs are empty and nothing
// concatenates them.
func EMSort[T cmp.Ordered](keys []T, codec wordcodec.Codec[T], cfg core.Config) ([]T, *core.Result[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = EMSortConfig(cfg, len(keys))
	d := &delivery[T]{out: make([]T, len(keys)), cuts: make([]int, cfg.V*cfg.V)}
	res, err := core.RunPar[T](into[T]{d: d}, codec, cfg, cgm.Scatter(keys, cfg.V))
	if err != nil {
		return nil, nil, err
	}
	return d.out, res, nil
}

// delivery is where an EMSort's VPs put their sorted ranges: out is the
// caller's result, and cuts[s·v + k] the size of the bucket k that VP s
// cut in round 1. VP s writes only row s; the superstep's barrier orders
// those writes before round 2 reads them.
type delivery[T any] struct {
	out  []T
	cuts []int
}

// at returns VP k's range of out, total items long: it starts past every
// source's buckets 0 … k−1.
func (d *delivery[T]) at(k, v, total int) []T {
	off := 0
	for s := 0; s < v; s++ {
		for _, c := range d.cuts[s*v : s*v+k] {
			off += c
		}
	}
	return d.out[off : off+total]
}

// into is Sorter delivering into d: its rounds are Sorter's, with the
// cuts recorded and the last merge writing into out. The VPs write
// disjoint ranges, so they need no lock.
type into[T cmp.Ordered] struct {
	Sorter[T]
	d *delivery[T]
}

// Round is Sorter.Round delivering into d.
func (p into[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	return psrsRound[T](p.Sorter, vp, round, inbox, p.d)
}

// Output hands the engine nothing to keep. The merge already delivered a
// VP's range; a lone VP, done before any bucket round, copies its sorted
// partition.
func (p into[T]) Output(vp *cgm.VP[T]) []T {
	if vp.V == 1 {
		copy(p.d.out, vp.State)
	}
	return nil
}
