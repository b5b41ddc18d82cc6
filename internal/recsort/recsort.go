// Package recsort provides CGM sorting-by-regular-sampling over rec.R
// records, keyed lexicographically by (X, Y, A). It is the sorting
// substrate the geometry algorithms (Figure 5, Group B) compose with:
// callers load the primary key into X (and optionally Y/A as tie-breaks)
// and receive the records redistributed into globally sorted slabs,
// one contiguous key range per virtual processor.
package recsort

import (
	"sort"

	"repro/internal/cgm"
	"repro/internal/rec"
)

// Less is the sort order: by X, then Y, then A (a caller-provided id,
// making the order total and the sort deterministic).
func Less(a, b rec.R) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.A < b.A
}

type key struct {
	x, y float64
	a    int64
}

func keyOf(r rec.R) key { return key{r.X, r.Y, r.A} }
func keyLess(a, b key) bool {
	if a.x != b.x {
		return a.x < b.x
	}
	if a.y != b.y {
		return a.y < b.y
	}
	return a.a < b.a
}

// program is PSRS over records, the splitters picked at VP 0 and broadcast
// (3 communication rounds; see sortalg.Sorter for the analysis and for the
// scalar version, which sends the samples to everyone and saves a round).
// Its local sorts stay comparison sorts through Less: the order is over
// (X, Y, A), two of them floats, which sortalg's integer radix kernel
// does not cover.
type program struct{}

func (program) Init(vp *cgm.VP[rec.R], input []rec.R) {
	vp.State = append([]rec.R(nil), input...)
}

func (program) Round(vp *cgm.VP[rec.R], round int, inbox [][]rec.R) ([][]rec.R, bool) {
	v := vp.V
	switch round {
	case 0:
		sort.Slice(vp.State, func(i, j int) bool { return Less(vp.State[i], vp.State[j]) })
		if v == 1 {
			return nil, true
		}
		out := make([][]rec.R, v)
		m := len(vp.State)
		if m <= v {
			out[0] = append([]rec.R(nil), vp.State...)
		} else {
			samples := make([]rec.R, v)
			for k := 0; k < v; k++ {
				samples[k] = vp.State[k*m/v]
			}
			out[0] = samples
		}
		return out, false

	case 1:
		if vp.ID != 0 {
			return nil, false
		}
		var samples []rec.R
		for _, m := range inbox {
			samples = append(samples, m...)
		}
		sort.Slice(samples, func(i, j int) bool { return Less(samples[i], samples[j]) })
		splitters := make([]rec.R, 0, v-1)
		s := len(samples)
		for k := 1; k < v; k++ {
			if s == 0 {
				splitters = append(splitters, rec.R{})
				continue
			}
			pos := k * s / v
			if pos >= s {
				pos = s - 1
			}
			splitters = append(splitters, samples[pos])
		}
		out := make([][]rec.R, v)
		for d := 0; d < v; d++ {
			out[d] = append([]rec.R(nil), splitters...)
		}
		return out, false

	case 2:
		splitters := inbox[0]
		out := make([][]rec.R, v)
		lo := 0
		for k := 0; k < v; k++ {
			hi := len(vp.State)
			if k < len(splitters) {
				sk := keyOf(splitters[k])
				hi = sort.Search(len(vp.State), func(i int) bool {
					return keyLess(sk, keyOf(vp.State[i]))
				})
			}
			if hi < lo {
				hi = lo
			}
			out[k] = append([]rec.R(nil), vp.State[lo:hi]...)
			lo = hi
		}
		vp.State = vp.State[:0]
		return out, false

	default:
		var all []rec.R
		for _, m := range inbox {
			all = append(all, m...)
		}
		sort.Slice(all, func(i, j int) bool { return Less(all[i], all[j]) })
		vp.State = all
		return nil, true
	}
}

func (program) Output(vp *cgm.VP[rec.R]) []rec.R { return vp.State }

func (program) MaxContextItems(n, v int) int {
	return 3*((n+v-1)/v) + v*v + v + 8
}

// Sort globally sorts the records under recsort.Less and returns the
// per-VP slabs (slab i holds a contiguous key range, slabs in order).
func Sort(e *rec.Exec, items []rec.R) ([][]rec.R, error) {
	return e.Run(program{}, rec.Scatter(items, e.V))
}
