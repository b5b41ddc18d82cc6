// Package transpose implements CGMTranspose (Figure 5, Group A, row 3):
// transposing a k×ℓ matrix from row-major to column-major order. On the
// CGM it is a special permutation whose destinations are computed, not
// stored, so items travel as bare (position, value) pairs in one
// communication round; the simulation yields O(N/(pDB)) I/Os versus the
// PDM's Θ((N/DB)·log_{M/B} min(M,k,ℓ,N/B)).
//
// The package is part of the determinism contract checked by the
// detorder analyzer (see DESIGN.md §11): identical inputs must yield
// bit-identical I/O schedules and op counts.
//
// emcgm:deterministic
package transpose

import (
	"fmt"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/sortalg"
)

// Program is CGMTranspose for a K×L matrix (K rows, L columns, N = K·L).
// Items are permute.Item pairs carrying the destination index in the
// column-major output.
type Program struct {
	K, L int
}

// New returns a transpose program for a k-row, l-column matrix.
func New(k, l int) Program { return Program{K: k, L: l} }

// Init stores the partition.
func (Program) Init(vp *cgm.VP[permute.Item], input []permute.Item) {
	vp.State = append([]permute.Item(nil), input...)
}

// Round 0 computes each element's column-major destination and routes it;
// round 1 places received elements.
func (p Program) Round(vp *cgm.VP[permute.Item], round int, inbox [][]permute.Item) ([][]permute.Item, bool) {
	n := p.K * p.L
	switch round {
	case 0:
		counts := make([]int, vp.V)
		for _, it := range vp.State {
			counts[cgm.Owner(n, vp.V, p.dest(it))]++
		}
		out := cgm.Outbox[permute.Item](counts)
		for _, it := range vp.State {
			dest := p.dest(it)
			d := cgm.Owner(n, vp.V, dest)
			out[d] = append(out[d], permute.Item{Dest: int64(dest), Val: it.Val})
		}
		vp.State = vp.State[:0]
		return out, false
	default:
		lo, hi := cgm.PartRange(n, vp.V, vp.ID)
		vp.State = make([]permute.Item, hi-lo)
		for _, msg := range inbox {
			for _, it := range msg {
				vp.State[int(it.Dest)-lo] = it
			}
		}
		return nil, true
	}
}

// dest is the column-major position of an element still tagged with its
// row-major position (set by EMTranspose).
func (p Program) dest(it permute.Item) int {
	g := int(it.Dest)
	r, c := g/p.L, g%p.L
	return c*p.K + r
}

// Output returns the column-major partition.
func (Program) Output(vp *cgm.VP[permute.Item]) []permute.Item { return vp.State }

// MaxContextItems declares μ: the partition.
func (p Program) MaxContextItems(n, v int) int { return (n+v-1)/v + 1 }

// EMTranspose transposes the K×L row-major matrix vals under the EM-CGM
// simulation, returning the L×K column-major result. cfg is validated
// before the limits below are derived from cfg.V.
func EMTranspose(vals []int64, k, l int, cfg core.Config) ([]int64, *core.Result[permute.Item], error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(vals) != k*l {
		return nil, nil, fmt.Errorf("transpose: %d values for a %d×%d matrix", len(vals), k, l)
	}
	n := len(vals)
	items := make([]permute.Item, n)
	for i := range items {
		items[i] = permute.Item{Dest: int64(i), Val: vals[i]} // Dest holds the source position pre-routing
	}
	v := cfg.V
	if cfg.MaxMsgItems == 0 {
		cfg.MaxMsgItems = 4*((n+v*v-1)/(v*v)) + v + 16
	}
	if cfg.MaxHItems == 0 {
		cfg.MaxHItems = 2*((n+v-1)/v) + v + 16
	}
	res, err := core.RunPar[permute.Item](New(k, l), permute.Codec{}, cfg, cgm.Scatter(items, v))
	if err != nil {
		return nil, nil, err
	}
	return permute.Values(res.Outputs, n), res, nil
}

// Sequential transposes in RAM — the Θ(N) reference.
func Sequential(vals []int64, k, l int) []int64 {
	out := make([]int64, len(vals))
	for r := 0; r < k; r++ {
		for c := 0; c < l; c++ {
			out[c*k+r] = vals[r*l+c]
		}
	}
	return out
}

// Baseline transposes externally by sorting (destination, value) records
// with the PDM mergesort — the classical general-permutation route whose
// I/O carries the log factor.
func Baseline(arr *pdm.DiskArray, vals []int64, k, l, mWords int) ([]int64, sortalg.Info, error) {
	dests := make([]int64, len(vals))
	for r := 0; r < k; r++ {
		for c := 0; c < l; c++ {
			dests[r*l+c] = int64(c*k + r)
		}
	}
	return permute.Baseline(arr, vals, dests, mWords)
}
