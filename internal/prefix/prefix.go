// Package prefix implements CGM prefix sums (parallel scan), broadcast
// and reduction. Scan needs one h-relation: each processor folds its
// partition locally, exchanges the v partial totals (h = v ≤ N/v), and
// offsets its local scan. No algorithm of the tree builds on the package;
// the root package's integration test and the experiments' conformance
// test run it.
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs must yield bit-identical I/O schedules and op counts.
package prefix

import (
	"repro/internal/cgm"
)

// Scan is a CGM program computing the inclusive prefix fold of the input
// under the associative operation Op with identity Zero. The output is the
// input sequence with element k replaced by Op(x_0, …, x_k), distributed
// exactly like the input.
type Scan[T any] struct {
	Op   func(a, b T) T
	Zero T
}

// Init stores the partition.
func (s Scan[T]) Init(vp *cgm.VP[T], input []T) {
	vp.State = append([]T(nil), input...)
}

// Round 0 broadcasts local totals; round 1 applies offsets.
func (s Scan[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	switch round {
	case 0:
		total := s.Zero
		for _, x := range vp.State {
			total = s.Op(total, x)
		}
		out := make([][]T, vp.V)
		for d := vp.ID + 1; d < vp.V; d++ {
			out[d] = []T{total}
		}
		return out, false
	default:
		offset := s.Zero
		for src := 0; src < vp.ID; src++ {
			if len(inbox[src]) == 1 {
				offset = s.Op(offset, inbox[src][0])
			}
		}
		acc := offset
		for i, x := range vp.State {
			acc = s.Op(acc, x)
			vp.State[i] = acc
		}
		return nil, true
	}
}

// Output returns the scanned partition.
func (s Scan[T]) Output(vp *cgm.VP[T]) []T { return vp.State }

// MaxContextItems declares μ: the partition itself.
func (s Scan[T]) MaxContextItems(n, v int) int { return (n+v-1)/v + 1 }

// Sums computes the inclusive prefix sums of xs sequentially (the test
// oracle and the T(A) reference of the cost model).
func Sums(xs []int64) []int64 {
	out := make([]int64, len(xs))
	var acc int64
	for i, x := range xs {
		acc += x
		out[i] = acc
	}
	return out
}

// Broadcast is a CGM program distributing VP 0's (single-item) partition
// to every processor in one round — the elementary substrate many Group B
// drivers use for splitters and boundaries.
type Broadcast[T any] struct{}

// Init stores the partition.
func (Broadcast[T]) Init(vp *cgm.VP[T], input []T) {
	vp.State = append([]T(nil), input...)
}

// Round 0: VP 0 ships its items everywhere; round 1: adopt.
func (Broadcast[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	switch round {
	case 0:
		if vp.ID != 0 {
			return nil, false
		}
		out := make([][]T, vp.V)
		for d := 1; d < vp.V; d++ {
			out[d] = append([]T(nil), vp.State...)
		}
		return out, false
	default:
		if vp.ID != 0 {
			vp.State = append(vp.State[:0], inbox[0]...)
		}
		return nil, true
	}
}

// Output returns the (now shared) items.
func (Broadcast[T]) Output(vp *cgm.VP[T]) []T { return vp.State }

// MaxContextItems declares μ for the EM machines.
func (Broadcast[T]) MaxContextItems(n, v int) int { return n + 2 }

// Reduce folds every item with Op into a single value delivered to all
// processors (an all-reduce) in two rounds.
type Reduce[T any] struct {
	Op   func(a, b T) T
	Zero T
}

// Init stores the partition.
func (r Reduce[T]) Init(vp *cgm.VP[T], input []T) {
	vp.State = append([]T(nil), input...)
}

// Round 0: local fold to VP 0; round 1: VP 0 folds and broadcasts;
// round 2: adopt.
func (r Reduce[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	switch round {
	case 0:
		acc := r.Zero
		for _, x := range vp.State {
			acc = r.Op(acc, x)
		}
		out := make([][]T, vp.V)
		out[0] = []T{acc}
		return out, false
	case 1:
		if vp.ID != 0 {
			return nil, false
		}
		acc := r.Zero
		for _, m := range inbox {
			for _, x := range m {
				acc = r.Op(acc, x)
			}
		}
		out := make([][]T, vp.V)
		for d := 0; d < vp.V; d++ {
			out[d] = []T{acc}
		}
		return out, false
	default:
		vp.State = append(vp.State[:0], inbox[0][0])
		return nil, true
	}
}

// Output returns the single reduced value.
func (r Reduce[T]) Output(vp *cgm.VP[T]) []T { return vp.State }

// MaxContextItems declares μ for the EM machines.
func (r Reduce[T]) MaxContextItems(n, v int) int { return (n+v-1)/v + 2 }
