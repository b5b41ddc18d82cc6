// Package permute implements Algorithm 4 of the paper (CGMPermute): given
// a vector V of N items and a vector P of N destination indices, deliver
// every item to its destination in one communication round — which the
// simulation turns into an O(N/(pDB))-I/O external permutation, beating
// the PDM bound Θ(min(N/D, sort(N))) in the coarse-grained range
// (Figure 5, Group A, row 2).
//
// The permutation runs in place. EMPermute's run (Deliver, which
// EMTranspose shares) reads the input where the caller keeps it: one
// pass before the run counts the (source VP, owner) message sizes, each
// VP's Init reads its own positions of the caller's vectors and scatters
// them with its row of that table, and the engine is handed empty input
// partitions. The largest count sizes the message slots, so every
// permutation fits them — the identity and the reverse too. Round 1
// places the items a VP receives into scratch the runtime lends, and each
// VP's Output writes the values straight into the caller's result while
// that scratch is still valid: the engine keeps no output partition, and
// no pass projects one. A dests that is not a permutation fails the run.
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs must yield bit-identical I/O schedules and op counts.
package permute

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
)

// Item pairs a value with its destination index in the permuted vector.
type Item struct {
	Dest int64
	Val  int64
}

// Codec encodes an Item in two words.
type Codec struct{}

// Words returns 2.
func (Codec) Words() int { return 2 }

// Encode stores dest then value.
func (Codec) Encode(dst []pdm.Word, it Item) {
	dst[0] = pdm.Word(it.Dest)
	dst[1] = pdm.Word(it.Val)
}

// Decode loads dest then value.
func (Codec) Decode(src []pdm.Word) Item {
	return Item{Dest: int64(src[0]), Val: int64(src[1])}
}

// EncodeSliceInto is the bulk fast path (wordcodec.BulkCodec): one loop
// over the word pairs, no per-item dispatch.
func (Codec) EncodeSliceInto(dst []pdm.Word, items []Item) {
	dst = dst[:2*len(items)]
	for i, it := range items {
		dst[2*i] = pdm.Word(it.Dest)
		dst[2*i+1] = pdm.Word(it.Val)
	}
}

// DecodeSliceInto is the decoding analogue of EncodeSliceInto.
func (Codec) DecodeSliceInto(dst []Item, src []pdm.Word) {
	src = src[:2*len(dst)]
	for i := range dst {
		dst[i] = Item{Dest: int64(src[2*i]), Val: int64(src[2*i+1])}
	}
}

// Program is CGMPermute. The program must know the global size N to route
// destinations to owners; construct with New.
type Program struct {
	N int
}

// New returns a CGMPermute program for vectors of n items.
func New(n int) Program { return Program{N: n} }

// Init routes as it copies: one counting pass over input finds where the
// group of each destination owner starts, and one stable scatter copies
// input into the new State grouped by owner, in owner order. The owner
// lookups go through a cgm.Owners table, so no item costs a division.
// The State is scratch the runtime lends, since round 0 only sends views
// of it.
func (p Program) Init(vp *cgm.VP[Item], input []Item) {
	own := cgm.NewOwners(p.N, vp.V)
	row := make([]int, vp.V+1)
	countRow(row, len(input), func(k int) int { return own.Owner(int(input[k].Dest)) })
	st := vp.Scratch(len(input))
	scatter(st, starts(row), len(input), func(k int) (int, Item) {
		return own.Owner(int(input[k].Dest)), input[k]
	})
	vp.State = st
}

// countRow adds one to row[d+1] for each of n items whose destination
// owner(k) is VP d, which makes row one source's row of the (source,
// owner) table: the sizes of the messages it sends. It and scatter are
// the one routing loop of every Init, and each is small enough to inline,
// so owner and at are calls of a known literal and cost nothing over the
// loop written out at its call site.
func countRow(row []int, n int, owner func(k int) int) {
	for k := range n {
		row[owner(k)+1]++
	}
}

// scatter copies the n items at(k) — each with the owner of its
// destination — into st, grouped by owner in owner order and stable
// within a group: next[d] is where owner d's group starts (starts gives
// it from countRow's row), and is advanced past each item placed.
func scatter(st []Item, next []int, n int, at func(k int) (int, Item)) {
	for k := range n {
		d, it := at(k)
		st[next[d]] = it
		next[d]++
	}
}

// starts turns a row of counts, row[d+1] items for owner d, into where
// each owner's group starts: the prefix sums of row, in a new slice.
func starts(row []int) []int {
	next := make([]int, len(row))
	for d := 1; d < len(row); d++ {
		next[d] = next[d-1] + row[d]
	}
	return next
}

// Round 0 sends each owner its group of the State Init left: message d is
// the run whose Dest lies in VP d's partition — the State is grouped in
// owner order, so a binary search finds where it ends — and is a capped
// view of the State (cap == len), not a copy. Round 1 places the items it
// receives into scratch the runtime lends, which Output reads before the
// runtime reuses it. Destinations that repeat are owned by the same VP, so
// a slot filled twice is found here, as it is filled; Round panics on it,
// as Init does on a destination outside [0, N), and the runtimes return
// the panic as the run's error.
func (p Program) Round(vp *cgm.VP[Item], round int, inbox [][]Item) ([][]Item, bool) {
	switch round {
	case 0:
		out := make([][]Item, vp.V)
		st := vp.State
		for d := range out {
			_, hi := cgm.PartRange(p.N, vp.V, d)
			end := sort.Search(len(st), func(i int) bool { return st[i].Dest >= int64(hi) })
			out[d] = st[:end:end]
			st = st[end:]
		}
		vp.State = vp.State[:0]
		return out, false
	default:
		lo, hi := cgm.PartRange(p.N, vp.V, vp.ID)
		st := vp.Scratch(hi - lo)
		// A filled slot holds its own index in Dest, which is nonzero but
		// for index 0, the one slot that needs a flag.
		zero := false
		for _, msg := range inbox {
			for _, it := range msg {
				k := int(it.Dest) - lo
				if st[k].Dest != 0 || it.Dest == 0 && zero {
					panic(fmt.Sprintf("permute: destination %d is repeated", it.Dest))
				}
				zero = zero || it.Dest == 0
				st[k] = it
			}
		}
		vp.State = st
		return nil, true
	}
}

// Output returns the permuted partition in position order. Under the EM
// simulation it still points into lent scratch, and the engine copies it
// out; EMPermute's delivery reads it in place instead.
func (Program) Output(vp *cgm.VP[Item]) []Item { return vp.State }

// MaxContextItems declares μ: the partition (in and out have equal sizes).
func (p Program) MaxContextItems(n, v int) int { return (n+v-1)/v + 1 }

// EMPermute permutes vals by dests (a permutation of 0..N-1) under the
// EM-CGM simulation, returning the permuted vector and the accounting.
// It runs Deliver: the input is read where the caller keeps it, each VP
// writes its values straight into the returned vector, and the Result's
// Outputs are empty. A dests that is not a permutation — a destination
// outside [0, N) or one that repeats — is an error. cfg is validated
// before the limits are derived from cfg.V.
func EMPermute(vals, dests []int64, cfg core.Config) ([]int64, *core.Result[Item], error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(vals) != len(dests) {
		return nil, nil, fmt.Errorf("permute: %d values but %d destinations", len(vals), len(dests))
	}
	return Deliver(vals, dests, nil, cfg)
}

// Deliver is the run EMPermute and transpose.EMTranspose share: CGMPermute
// under core.RunPar on the vector vals, the destination of position g
// being dests[g] or, when dests is nil, rule(g). cfg must be valid.
//
// The input stays where the caller keeps it. One parallel pass before the
// run counts the v×(v+1) table of (source VP, owner) message sizes; each
// VP's Init then reads its own vals[lo:hi] and destinations in place and
// scatters them with its row of the table, counting nothing again. So the
// engine is handed v empty input partitions, by design, and no bound is
// taken from their lengths: Deliver sets every bound itself, and the
// program declares μ from its own N. Unless cfg sets them, the h bound is ⌈N/v⌉
// (each VP sends its partition and receives one) and a message slot holds
// the table's largest entry and the guard past it (core.SlotItems). A
// Balanced run leaves the slot to Theorem 1's bound on that h, which is
// all a balanced message can be.
//
// The output is delivered in place too: each VP's Output writes its
// values straight into the returned vector, on the worker that ran its
// last round and before the worker's arena is reused, and hands the
// engine nothing to keep. The Result's Outputs are empty, and there is no
// projection pass.
func Deliver(vals, dests []int64, rule func(g int) int64, cfg core.Config) ([]int64, *core.Result[Item], error) {
	n, v := len(vals), cfg.V
	d := &delivery{Program: New(n), v: v, own: cgm.NewOwners(n, v), vals: vals, dests: dests, rule: rule,
		table: make([]int, v*(v+1)), out: make([]int64, n)}
	if err := cgm.ForEachVP(v, d.count); err != nil {
		return nil, nil, err
	}
	if cfg.MaxHItems == 0 {
		cfg.MaxHItems = (n + v - 1) / v
	}
	if cfg.MaxMsgItems == 0 && !cfg.Balanced {
		cfg.MaxMsgItems = core.SlotItems(slices.Max(d.table), Codec{}.Words(), cfg.B)
	}
	res, err := core.RunPar[Item](d, Codec{}, cfg, make([][]Item, v))
	if err != nil {
		return nil, nil, err
	}
	return d.out, res, nil
}

// delivery is CGMPermute on a vector the caller keeps: VP i's input is
// positions lo..hi of vals (cgm.PartRange), read in place, and its Output
// writes the values of its result partition into out at lo. The VPs write
// disjoint ranges, so they need no lock. table holds v rows of v+1
// counts, row i being countRow's row for VP i. Stored destinations and a
// rule each get a literal of their own, so that a stored one costs a
// slice read per item and not a call.
type delivery struct {
	Program
	v           int
	own         cgm.Owners
	vals, dests []int64
	rule        func(g int) int64
	table       []int
	out         []int64
}

// row is VP i's row of the table.
func (d *delivery) row(i int) []int { return d.table[i*(d.v+1) : (i+1)*(d.v+1)] }

// count fills VP i's row of the table. It counts into a row of its own and
// copies that in whole: goroutines that incremented neighbouring rows of
// the shared table would write to the same cache lines all pass long.
func (d *delivery) count(i int) error {
	lo, hi := cgm.PartRange(d.N, d.v, i)
	own, row := d.own, make([]int, d.v+1)
	if d.dests != nil {
		dests := d.dests[lo:hi]
		countRow(row, len(dests), func(k int) int { return own.Owner(int(dests[k])) })
	} else {
		rule := d.rule
		countRow(row, hi-lo, func(k int) int { return own.Owner(int(rule(lo + k))) })
	}
	copy(d.row(i), row)
	return nil
}

// Init ignores the empty input the engine hands it and reads the VP's
// positions in place: the destinations are looked up (or computed) once
// more to place each item, but the row the count left says where every
// owner's group starts. The State is lent scratch, as Program.Init's is.
func (d *delivery) Init(vp *cgm.VP[Item], _ []Item) {
	lo, hi := cgm.PartRange(d.N, vp.V, vp.ID)
	own, vals := d.own, d.vals[lo:hi]
	st := vp.Scratch(len(vals))
	next := starts(d.row(vp.ID))
	if d.dests != nil {
		dests := d.dests[lo:hi]
		scatter(st, next, len(vals), func(k int) (int, Item) {
			return own.Owner(int(dests[k])), Item{Dest: dests[k], Val: vals[k]}
		})
	} else {
		rule := d.rule
		scatter(st, next, len(vals), func(k int) (int, Item) {
			g := rule(lo + k)
			return own.Owner(int(g)), Item{Dest: g, Val: vals[k]}
		})
	}
	vp.State = st
}

// Output writes the VP's values into out at PartRange's lo and returns
// nothing for the engine to keep.
func (d *delivery) Output(vp *cgm.VP[Item]) []Item {
	lo, _ := cgm.PartRange(d.N, vp.V, vp.ID)
	dst := d.out[lo : lo+len(vp.State)]
	for k, it := range vp.State {
		dst[k] = it.Val
	}
	return nil
}

// MaxContextItems declares μ from the delivery's own N: the engine's n,
// counted from the empty partitions, is 0.
func (d *delivery) MaxContextItems(_, v int) int { return d.Program.MaxContextItems(d.N, v) }

// Sequential permutes vals by dests in RAM — the Θ(N) reference.
func Sequential(vals, dests []int64) []int64 {
	out := make([]int64, len(vals))
	for i, d := range dests {
		out[d] = vals[i]
	}
	return out
}

// Baseline permutes externally the classical PDM way: sort (dest, val)
// records by destination with multiway mergesort, inheriting its
// Θ((N/DB)·log_{M/B}(N/B)) I/O cost.
func Baseline(arr *pdm.DiskArray, vals, dests []int64, mWords int) ([]int64, sortalg.Info, error) {
	recs := make([]pdm.Word, 2*len(vals))
	for i := range vals {
		recs[2*i] = pdm.Word(dests[i])
		recs[2*i+1] = pdm.Word(vals[i])
	}
	sorted, info, err := sortalg.MergeSort(arr, recs, 2, mWords)
	if err != nil {
		return nil, info, err
	}
	out := make([]int64, len(vals))
	for i := range out {
		out[i] = int64(sorted[2*i+1])
	}
	return out, info, nil
}

var _ cgm.Program[Item] = Program{}
var _ cgm.ContextSizer = (*delivery)(nil)
var _ wordcodec.BulkCodec[Item] = Codec{}
