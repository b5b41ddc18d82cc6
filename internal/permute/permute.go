// Package permute implements Algorithm 4 of the paper (CGMPermute): given
// a vector V of N items and a vector P of N destination indices, deliver
// every item to its destination in one communication round — which the
// simulation turns into an O(N/(pDB))-I/O external permutation, beating
// the PDM bound Θ(min(N/D, sort(N))) in the coarse-grained range
// (Figure 5, Group A, row 2).
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs must yield bit-identical I/O schedules and op counts.
package permute

import (
	"fmt"

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

// Init stores the partition.
func (Program) Init(vp *cgm.VP[Item], input []Item) {
	vp.State = append([]Item(nil), input...)
}

// Round 0 routes items to their destination owners; round 1 places them.
func (p Program) Round(vp *cgm.VP[Item], round int, inbox [][]Item) ([][]Item, bool) {
	switch round {
	case 0:
		counts := make([]int, vp.V)
		for _, it := range vp.State {
			counts[cgm.Owner(p.N, vp.V, int(it.Dest))]++
		}
		out := cgm.Outbox[Item](counts)
		for _, it := range vp.State {
			d := cgm.Owner(p.N, vp.V, int(it.Dest))
			out[d] = append(out[d], it)
		}
		vp.State = vp.State[:0]
		return out, false
	default:
		lo, hi := cgm.PartRange(p.N, vp.V, vp.ID)
		vp.State = make([]Item, hi-lo)
		for _, msg := range inbox {
			for _, it := range msg {
				vp.State[int(it.Dest)-lo] = it
			}
		}
		return nil, true
	}
}

// Output returns the permuted partition in position order.
func (Program) Output(vp *cgm.VP[Item]) []Item { return vp.State }

// MaxContextItems declares μ: the partition (in and out have equal sizes).
func (p Program) MaxContextItems(n, v int) int { return (n+v-1)/v + 1 }

// EMPermute permutes vals by dests (a permutation of 0..N-1) under the
// EM-CGM simulation, returning the permuted vector and the accounting.
// cfg is validated before the limits below are derived from cfg.V.
func EMPermute(vals, dests []int64, cfg core.Config) ([]int64, *core.Result[Item], error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(vals) != len(dests) {
		return nil, nil, fmt.Errorf("permute: %d values but %d destinations", len(vals), len(dests))
	}
	n := len(vals)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Dest: dests[i], Val: vals[i]}
	}
	v := cfg.V
	if cfg.MaxMsgItems == 0 {
		cfg.MaxMsgItems = 4*((n+v*v-1)/(v*v)) + v + 16
	}
	if cfg.MaxHItems == 0 {
		cfg.MaxHItems = 2*((n+v-1)/v) + v + 16
	}
	res, err := core.RunPar[Item](New(n), Codec{}, cfg, cgm.Scatter(items, v))
	if err != nil {
		return nil, nil, err
	}
	return Values(res.Outputs, n), res, nil
}

// Values projects the n values out of per-VP output partitions, in VP
// order, without concatenating the partitions first.
func Values(parts [][]Item, n int) []int64 {
	out := make([]int64, n)
	i := 0
	for _, part := range parts {
		for _, it := range part {
			out[i] = it.Val
			i++
		}
	}
	return out
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
