package sortalg

import (
	"cmp"
	"math/bits"

	"repro/internal/cgm"
)

// TournamentSorter is a second CGM sorting algorithm used as the round
// -count ablation: local sort followed by a binary tournament of merges,
// λ = ⌈log₂ v⌉ rounds instead of PSRS's O(1). Under the EM-CGM
// simulation each extra round costs another full pass of context and
// message I/O, so the measured I/O constant grows by Θ(log v) — a direct
// demonstration of why the paper insists on O(1)-round CGM algorithms
// (its Theorem 2 I/O bound carries the factor λ).
//
// Note the tournament also concentrates data: the final merge holds all
// N items on virtual processor 0, violating the CGM memory invariant
// μ = O(N/v). It is intentionally the "wrong" algorithm shape — the
// ablation's point.
type TournamentSorter[T cmp.Ordered] struct{}

// Init sorts the partition locally.
func (TournamentSorter[T]) Init(vp *cgm.VP[T], input []T) {
	vp.State = sortedCopy(input)
}

func tournamentRounds(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v - 1))
}

// Round merges pairwise: at round k, VP i with bit k set ships its run to
// VP i−2^k, which merges.
func (TournamentSorter[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	v := vp.V
	K := tournamentRounds(v)
	for _, msg := range inbox {
		if len(msg) > 0 {
			merged := make([]T, len(vp.State)+len(msg))
			mergeTwo(merged, vp.State, msg)
			vp.State = merged
		}
	}
	if round >= K {
		return nil, true
	}
	bit := 1 << round
	if vp.ID&bit != 0 && vp.ID-bit >= 0 {
		out := make([][]T, v)
		out[vp.ID-bit] = vp.State
		vp.State = nil
		return out, false
	}
	return nil, false
}

// Output returns the merged run (everything at VP 0, empty elsewhere).
func (TournamentSorter[T]) Output(vp *cgm.VP[T]) []T { return vp.State }

// MaxContextItems: the final merge holds the entire input.
func (TournamentSorter[T]) MaxContextItems(n, v int) int { return n + v + 8 }
