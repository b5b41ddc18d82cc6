package geom

import (
	"math"
	"sort"

	"repro/internal/cgm"
	"repro/internal/rec"
	"repro/internal/workload"
)

// Record tags for the geometry programs.
const (
	tResident int64 = iota + 400 // point at its x-slab owner: A=id, B=xslab, X=x, Y=y, C=payload bits
	tRowCopy                     // point copy at its y-slab owner: same fields, D=yslab
	tCell                        // cell aggregate: A=yslab, B=xslab, X=aggregate
	tYof                         // A=id, B=yslab — tells the resident owner its point's y-slab
	tRowQ                        // row query: A=id, B=xslab, C=reply VP, X=px, Y=py
	tRowA                        // row answer: A=id, X=partial aggregate
	tOut                         // result: A=id, X=value
)

// gridMode selects the semantics of the shared grid-decomposition
// finishing program.
type gridMode int

const (
	modeDominance gridMode = iota // Σ weights over q ≤ p (south-west region)
	modeMaxima                    // max z over q > p (north-east region)
)

// gridFinish is the 4-round finishing program of the CGM grid
// decomposition (the v×v slab grid built from one sort by x and one by
// y): cell aggregates and y-slab assignments are exchanged, each point
// queries its own grid row remotely, and everything else resolves from
// local and broadcast data. λ = O(1) rounds, h = O(N/v + v²) — the
// pattern behind Figure 5's dominance-counting and 3D-maxima rows, exact
// for all inputs with distinct coordinates.
type gridFinish struct {
	mode gridMode
}

func (p gridFinish) ident() float64 {
	if p.mode == modeDominance {
		return 0
	}
	return math.Inf(-1)
}

func (p gridFinish) Init(vp *cgm.VP[rec.R], input []rec.R) {
	vp.State = append([]rec.R(nil), input...)
}

func (p gridFinish) Round(vp *cgm.VP[rec.R], round int, inbox [][]rec.R) ([][]rec.R, bool) {
	v := vp.V
	switch round {
	case 0:
		// Broadcast this row's per-xslab aggregates; tell each point's
		// x-slab owner which y-slab it fell into.
		agg := make([]float64, v)
		for i := range agg {
			agg[i] = p.ident()
		}
		out := make([][]rec.R, v)
		for _, r := range vp.State {
			if r.Tag != tRowCopy {
				continue
			}
			val := rowVal(p.mode, r)
			if p.mode == modeDominance {
				agg[r.B] += val
			} else if val > agg[r.B] {
				agg[r.B] = val
			}
			out[r.B] = append(out[r.B], rec.R{Tag: tYof, A: r.A, B: int64(vp.ID)})
		}
		for d := 0; d < v; d++ {
			for xs := 0; xs < v; xs++ {
				out[d] = append(out[d], rec.R{Tag: tCell, A: int64(vp.ID), B: int64(xs), X: agg[xs]})
			}
		}
		return out, false

	case 1:
		// Assemble the cell matrix and y-slab assignments; send row
		// queries.
		cells := make([][]float64, v)
		for i := range cells {
			cells[i] = make([]float64, v)
		}
		yof := map[int64]int64{}
		for _, msg := range inbox {
			for _, m := range msg {
				switch m.Tag {
				case tCell:
					cells[m.A][m.B] = m.X
				case tYof:
					yof[m.A] = m.B
				}
			}
		}
		out := make([][]rec.R, v)
		// Stash each resident's cell contribution in C (bits) so round 3
		// only needs the row answer. Local part computed here too.
		local := p.localPart(vp)
		for i := range vp.State {
			r := &vp.State[i]
			if r.Tag != tResident {
				continue
			}
			j := yof[r.A]
			acc := p.ident()
			for ys := 0; ys < v; ys++ {
				for xs := 0; xs < v; xs++ {
					use := false
					if p.mode == modeDominance {
						use = int64(ys) < j && xs < vp.ID
					} else {
						use = int64(ys) > j && xs > vp.ID
					}
					if !use {
						continue
					}
					if p.mode == modeDominance {
						acc += cells[ys][xs]
					} else if cells[ys][xs] > acc {
						acc = cells[ys][xs]
					}
				}
			}
			if p.mode == modeDominance {
				acc += local[r.A]
			} else if local[r.A] > acc {
				acc = local[r.A]
			}
			r.D = rec.F2I(acc) // accumulated (cells + local) so far
			out[j] = append(out[j], rec.R{Tag: tRowQ, A: r.A, B: int64(vp.ID), C: int64(vp.ID), X: r.X, Y: r.Y})
		}
		return out, false

	case 2:
		// Answer row queries from the row copies we hold.
		var rows []rec.R
		for _, r := range vp.State {
			if r.Tag == tRowCopy {
				rows = append(rows, r)
			}
		}
		out := make([][]rec.R, v)
		for _, msg := range inbox {
			for _, q := range msg {
				if q.Tag != tRowQ {
					continue
				}
				acc := p.ident()
				for _, r := range rows {
					if p.mode == modeDominance {
						if r.B < q.B && r.Y <= q.Y && r.X <= q.X {
							acc += rowVal(p.mode, r)
						}
					} else {
						if r.B > q.B && r.Y > q.Y && r.X > q.X {
							if z := rowVal(p.mode, r); z > acc {
								acc = z
							}
						}
					}
				}
				out[q.C] = append(out[q.C], rec.R{Tag: tRowA, A: q.A, X: acc})
			}
		}
		return out, false

	default:
		// Finalise.
		ans := map[int64]float64{}
		for _, msg := range inbox {
			for _, m := range msg {
				if m.Tag == tRowA {
					ans[m.A] = m.X
				}
			}
		}
		var outs []rec.R
		for _, r := range vp.State {
			if r.Tag != tResident {
				continue
			}
			acc := rec.I2F(r.D)
			part := ans[r.A]
			if p.mode == modeDominance {
				acc += part
			} else if part > acc {
				acc = part
			}
			outs = append(outs, rec.R{Tag: tOut, A: r.A, X: acc})
		}
		vp.State = outs
		return nil, true
	}
}

// rowVal extracts the payload of a point record: weight for dominance,
// z for maxima (bit-packed in C).
func rowVal(mode gridMode, r rec.R) float64 { return rec.I2F(r.C) }

// localPart computes, per resident id, the same-x-slab contribution:
// dominance: Σ w(q) with qx ≤ px, qy ≤ py; maxima: max z with qx > px,
// qy > py. O(m log m) via a Fenwick tree over local y ranks.
func (p gridFinish) localPart(vp *cgm.VP[rec.R]) map[int64]float64 {
	var pts []rec.R
	for _, r := range vp.State {
		if r.Tag == tResident {
			pts = append(pts, r)
		}
	}
	out := make(map[int64]float64, len(pts))
	m := len(pts)
	if m == 0 {
		return out
	}
	// y ranks.
	ys := make([]float64, m)
	for i, r := range pts {
		ys[i] = r.Y
	}
	sort.Float64s(ys)
	rank := func(y float64) int { return sort.SearchFloat64s(ys, y) }

	if p.mode == modeDominance {
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		bit := newFenwickSum(m)
		for _, r := range pts {
			out[r.A] = bit.prefix(rank(r.Y) + 1)
			bit.add(rank(r.Y)+1, rowVal(p.mode, r))
		}
		return out
	}
	// Maxima: process by x descending; prefix-max over descending-y rank.
	sort.Slice(pts, func(i, j int) bool { return pts[i].X > pts[j].X })
	bit := newFenwickMax(m)
	for _, r := range pts {
		// ranks with y > r.Y: descending rank = m - rank(r.Y) ... use
		// inverted index: inv = m - rank(y) so bigger y → smaller inv.
		inv := m - rank(r.Y) - 1
		out[r.A] = bit.prefix(inv) // strictly bigger y only
		bit.add(inv+1, rowVal(p.mode, r))
	}
	return out
}

func (p gridFinish) Output(vp *cgm.VP[rec.R]) []rec.R { return vp.State }

func (p gridFinish) MaxContextItems(n, v int) int { return 2*((n+v-1)/v) + 2*v + 16 }

// fenwickSum is a Fenwick tree over 1..n accumulating sums.
type fenwickSum struct{ t []float64 }

func newFenwickSum(n int) *fenwickSum { return &fenwickSum{t: make([]float64, n+1)} }
func (f *fenwickSum) add(i int, v float64) {
	for ; i < len(f.t); i += i & (-i) {
		f.t[i] += v
	}
}
func (f *fenwickSum) prefix(i int) float64 {
	s := 0.0
	if i >= len(f.t) {
		i = len(f.t) - 1
	}
	for ; i > 0; i -= i & (-i) {
		s += f.t[i]
	}
	return s
}

// fenwickMax is a Fenwick tree over 1..n accumulating prefix maxima.
type fenwickMax struct{ t []float64 }

func newFenwickMax(n int) *fenwickMax {
	f := &fenwickMax{t: make([]float64, n+1)}
	for i := range f.t {
		f.t[i] = math.Inf(-1)
	}
	return f
}
func (f *fenwickMax) add(i int, v float64) {
	for ; i < len(f.t); i += i & (-i) {
		if v > f.t[i] {
			f.t[i] = v
		}
	}
}
func (f *fenwickMax) prefix(i int) float64 {
	s := math.Inf(-1)
	if i >= len(f.t) {
		i = len(f.t) - 1
	}
	for ; i > 0; i -= i & (-i) {
		if f.t[i] > s {
			s = f.t[i]
		}
	}
	return s
}

// gridInputs runs the two sorts (by x, by y) and assembles the finishing
// program's inputs: partition k = residents of x-slab k + row copies of
// y-slab k. pts[i] must carry A=id, X=x, Y=y, C=payload bits.
func gridInputs(e *rec.Exec, pts []rec.R) ([][]rec.R, error) {
	xSlabs, err := e.Run(bySlab, rec.Scatter(pts, e.V))
	if err != nil {
		return nil, err
	}
	// Tag residents with their x-slab; prepare the y-sort copies with
	// swapped coordinates (the sort keys on X).
	var ySortIn []rec.R
	inputs := make([][]rec.R, e.V)
	for slab, part := range xSlabs {
		for _, r := range part {
			res := r
			res.Tag = tResident
			res.B = int64(slab)
			inputs[slab] = append(inputs[slab], res)
			cp := r
			cp.B = int64(slab)
			cp.X, cp.Y = r.Y, r.X // sort by y
			ySortIn = append(ySortIn, cp)
		}
	}
	ySlabs, err := e.Run(bySlab, rec.Scatter(ySortIn, e.V))
	if err != nil {
		return nil, err
	}
	for slab, part := range ySlabs {
		for _, r := range part {
			cp := r
			cp.Tag = tRowCopy
			cp.X, cp.Y = r.Y, r.X // restore (x, y)
			cp.D = int64(slab)
			inputs[slab] = append(inputs[slab], cp)
		}
	}
	return inputs, nil
}

// Dominance computes, for every point, the total weight of points it
// dominates (q.x ≤ p.x, q.y ≤ p.y, q ≠ p) on the given executor.
// Coordinates must be pairwise distinct per axis.
func Dominance(e *rec.Exec, pts []workload.Point, w []float64) ([]float64, error) {
	in := make([]rec.R, len(pts))
	for i, p := range pts {
		in[i] = rec.R{A: int64(i), X: p.X, Y: p.Y, C: rec.F2I(w[i])}
	}
	inputs, err := gridInputs(e, in)
	if err != nil {
		return nil, err
	}
	outs, err := e.Run(gridFinish{mode: modeDominance}, inputs)
	if err != nil {
		return nil, err
	}
	res := make([]float64, len(pts))
	for _, part := range outs {
		for _, r := range part {
			if r.Tag == tOut {
				res[r.A] = r.X
			}
		}
	}
	return res, nil
}

// Maxima3D flags the 3D-maximal points (no other point strictly greater
// in x, y and z) on the given executor. The grid is built over (x, y);
// z rides along as the aggregate payload.
func Maxima3D(e *rec.Exec, pts []workload.Point3) ([]bool, error) {
	in := make([]rec.R, len(pts))
	for i, p := range pts {
		in[i] = rec.R{A: int64(i), X: p.X, Y: p.Y, C: rec.F2I(p.Z)}
	}
	inputs, err := gridInputs(e, in)
	if err != nil {
		return nil, err
	}
	outs, err := e.Run(gridFinish{mode: modeMaxima}, inputs)
	if err != nil {
		return nil, err
	}
	res := make([]bool, len(pts))
	for _, part := range outs {
		for _, r := range part {
			if r.Tag == tOut {
				res[r.A] = r.X <= pts[r.A].Z
			}
		}
	}
	return res, nil
}
