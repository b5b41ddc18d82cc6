package geom

import (
	"math"

	"repro/internal/cgm"
	"repro/internal/rec"
	"repro/internal/workload"
)

// Tags for the all-nearest-neighbours program.
const (
	tPt    int64 = iota + 600 // resident point: A=id, X=x, Y=y
	tRange                    // slab x-range: A=slab, X=min x, Y=max x
	tNNQ                      // refinement query: A=id, B=home, X=x, Y=y, C=best dist bits
	tNNA                      // refinement answer: A=id, B=candidate id, C=dist bits
	tNNOut                    // result: A=id, B=nn id
)

// annProg computes all nearest neighbours over x-sorted slabs
// (Figure 5, Group B, row 6): each slab solves locally, then every point
// whose candidate ball crosses slab boundaries queries exactly the slabs
// its ball intersects. λ = O(1) rounds; exact for all inputs. The
// refinement volume is O(1) expected copies per point for non-degenerate
// data, but degenerate inputs (all points on a vertical line) can route
// Θ(v) copies — the paper's coarse-grained slackness assumption.
type annProg struct{}

func (annProg) Init(vp *cgm.VP[rec.R], input []rec.R) {
	vp.State = append([]rec.R(nil), input...)
}

func dist2(x1, y1, x2, y2 float64) float64 {
	return (x1-x2)*(x1-x2) + (y1-y2)*(y1-y2)
}

// localNN returns, among pts, the best neighbour of (x,y) excluding id;
// returns (-1, +inf) if none.
func localNN(pts []rec.R, id int64, x, y float64) (int64, float64) {
	best, bd := int64(-1), math.Inf(1)
	for _, q := range pts {
		if q.A == id {
			continue
		}
		d := dist2(x, y, q.X, q.Y)
		if d < bd || (d == bd && q.A < best) {
			bd, best = d, q.A
		}
	}
	return best, bd
}

func (p annProg) Round(vp *cgm.VP[rec.R], round int, inbox [][]rec.R) ([][]rec.R, bool) {
	v := vp.V
	switch round {
	case 0:
		// Broadcast this slab's x-range.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range vp.State {
			lo = math.Min(lo, r.X)
			hi = math.Max(hi, r.X)
		}
		out := make([][]rec.R, v)
		for d := 0; d < v; d++ {
			out[d] = append(out[d], rec.R{Tag: tRange, A: int64(vp.ID), X: lo, Y: hi})
		}
		return out, false

	case 1:
		// Local candidates; refinement queries to slabs whose x-range the
		// candidate ball intersects.
		ranges := make([][2]float64, v)
		for i := range ranges {
			ranges[i] = [2]float64{math.Inf(1), math.Inf(-1)}
		}
		for _, msg := range inbox {
			for _, m := range msg {
				if m.Tag == tRange {
					ranges[m.A] = [2]float64{m.X, m.Y}
				}
			}
		}
		out := make([][]rec.R, v)
		for i := range vp.State {
			r := &vp.State[i]
			if r.Tag != tPt {
				continue
			}
			bestID, bd := localNN(vp.State, r.A, r.X, r.Y)
			r.B = bestID
			r.C = rec.F2I(bd)
			rad := math.Sqrt(bd)
			for s := 0; s < v; s++ {
				if s == vp.ID {
					continue
				}
				if ranges[s][0] > ranges[s][1] {
					continue // empty slab
				}
				if r.X+rad < ranges[s][0] || r.X-rad > ranges[s][1] {
					continue
				}
				out[s] = append(out[s], rec.R{Tag: tNNQ, A: r.A, B: int64(vp.ID), X: r.X, Y: r.Y, C: r.C})
			}
		}
		return out, false

	case 2:
		// Answer refinement queries.
		out := make([][]rec.R, v)
		for _, msg := range inbox {
			for _, q := range msg {
				if q.Tag != tNNQ {
					continue
				}
				cand, cd := localNN(vp.State, q.A, q.X, q.Y)
				if cand >= 0 && cd < rec.I2F(q.C) {
					out[q.B] = append(out[q.B], rec.R{Tag: tNNA, A: q.A, B: cand, C: rec.F2I(cd)})
				}
			}
		}
		return out, false

	default:
		// Fold answers; emit results.
		best := map[int64][2]int64{} // id → (nn, dist bits)
		for _, r := range vp.State {
			if r.Tag == tPt {
				best[r.A] = [2]int64{r.B, r.C}
			}
		}
		for _, msg := range inbox {
			for _, m := range msg {
				if m.Tag != tNNA {
					continue
				}
				cur := best[m.A]
				if rec.I2F(m.C) < rec.I2F(cur[1]) ||
					(rec.I2F(m.C) == rec.I2F(cur[1]) && m.B < cur[0]) {
					best[m.A] = [2]int64{m.B, m.C}
				}
			}
		}
		var outs []rec.R
		for _, r := range vp.State {
			if r.Tag == tPt {
				outs = append(outs, rec.R{Tag: tNNOut, A: r.A, B: best[r.A][0]})
			}
		}
		vp.State = outs
		return nil, true
	}
}

func (annProg) Output(vp *cgm.VP[rec.R]) []rec.R { return vp.State }

func (annProg) MaxContextItems(n, v int) int { return 2*((n+v-1)/v) + 2*v + 16 }

// ANN returns each point's nearest neighbour index (-1 for a singleton)
// on the given executor.
func ANN(e *rec.Exec, pts []workload.Point) ([]int, error) {
	in := make([]rec.R, len(pts))
	for i, p := range pts {
		in[i] = rec.R{Tag: tPt, A: int64(i), X: p.X, Y: p.Y}
	}
	slabs, err := e.Run(bySlab, rec.Scatter(in, e.V))
	if err != nil {
		return nil, err
	}
	for _, slab := range slabs {
		for i := range slab {
			slab[i].Tag = tPt
		}
	}
	outs, err := e.Run(annProg{}, slabs)
	if err != nil {
		return nil, err
	}
	res := make([]int, len(pts))
	for i := range res {
		res[i] = -1
	}
	for _, part := range outs {
		for _, r := range part {
			if r.Tag == tNNOut {
				res[r.A] = int(r.B)
			}
		}
	}
	return res, nil
}
