// Package permute implements Algorithm 4 of the paper (CGMPermute): given
// a vector V of N items and a vector P of N destination indices, deliver
// every item to its destination in one communication round — which the
// simulation turns into an O(N/(pDB))-I/O external permutation, beating
// the PDM bound Θ(min(N/D, sort(N))) in the coarse-grained range
// (Figure 5, Group A, row 2).
//
// The permutation delivers in place. Round 1 places the items a VP
// receives into scratch the runtime lends, and EMPermute's delivery
// (Deliver, which EMTranspose shares) has each VP's Output write the
// values straight into the caller's result while that scratch is still
// valid: the engine keeps no output partition, and no pass projects one.
// A dests that is not a permutation fails the run.
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs must yield bit-identical I/O schedules and op counts.
package permute

import (
	"fmt"
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
	next := make([]int, vp.V+1)
	for _, it := range input {
		next[own.Owner(int(it.Dest))+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	st := vp.Scratch(len(input))
	for _, it := range input {
		d := own.Owner(int(it.Dest))
		st[next[d]] = it
		next[d]++
	}
	vp.State = st
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
// Each VP writes its values straight into the returned vector, so the
// Result's Outputs are empty. A dests that is not a permutation — a
// destination outside [0, N) or one that repeats — is an error. cfg is
// validated before the limits below are derived from cfg.V.
func EMPermute(vals, dests []int64, cfg core.Config) ([]int64, *core.Result[Item], error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(vals) != len(dests) {
		return nil, nil, fmt.Errorf("permute: %d values but %d destinations", len(vals), len(dests))
	}
	n, v := len(vals), cfg.V
	parts := make([][]Item, v)
	if err := cgm.ForEachVP(v, func(i int) error {
		lo, hi := cgm.PartRange(n, v, i)
		part := make([]Item, hi-lo)
		for k := range part {
			part[k] = Item{Dest: dests[lo+k], Val: vals[lo+k]}
		}
		parts[i] = part
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return Deliver(New(n), cfg, parts)
}

// Deliver is the tail EMPermute and transpose.EMTranspose share. It runs
// prog, whose last round leaves each VP's partition of the n result
// positions in its State in position order, under core.RunPar on the n
// items of parts, with the permutation's message and h bounds unless cfg
// sets its own. Each VP's Output writes its values straight into the
// returned vector, on the worker that ran its last round and before the
// worker's arena is reused, and hands the engine nothing to keep: the
// Result's Outputs are empty, and there is no projection pass.
func Deliver(prog sizedProgram, cfg core.Config, parts [][]Item) ([]int64, *core.Result[Item], error) {
	n, v := 0, cfg.V
	for _, part := range parts {
		n += len(part)
	}
	if cfg.MaxMsgItems == 0 {
		cfg.MaxMsgItems = 4*((n+v*v-1)/(v*v)) + v + 16
	}
	if cfg.MaxHItems == 0 {
		cfg.MaxHItems = 2*((n+v-1)/v) + v + 16
	}
	out := make([]int64, n)
	res, err := core.RunPar[Item](into{prog, out}, Codec{}, cfg, parts)
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// sizedProgram is a program that declares its context bound μ, which
// into passes on to the engine.
type sizedProgram interface {
	cgm.Program[Item]
	cgm.ContextSizer
}

// into is a program whose Output delivers into out: VP i writes the
// values of its partition at PartRange's lo. The VPs write disjoint
// ranges, so they need no lock.
type into struct {
	sizedProgram
	out []int64
}

func (p into) Output(vp *cgm.VP[Item]) []Item {
	lo, _ := cgm.PartRange(len(p.out), vp.V, vp.ID)
	dst := p.out[lo : lo+len(vp.State)]
	for k, it := range vp.State {
		dst[k] = it.Val
	}
	return nil
}

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
var _ wordcodec.BulkCodec[Item] = Codec{}
