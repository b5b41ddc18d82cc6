package geom

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/cgm"
	"repro/internal/rec"
	"repro/internal/sortalg"
	"repro/internal/workload"
)

// bySlab is the sort the geometry programs begin with: records, keyed
// into X, Y and a unique id A, redistributed by rec.Compare into globally
// sorted slabs, slab k the k-th key range.
var bySlab = sortalg.SorterFunc[rec.R]{Cmp: rec.Compare}

// Tags for the hull program.
const (
	tHullPt int64 = iota + 800 // hull point: A=id, X=x, Y=y
)

// hullProg computes the 2D convex hull: points arrive globally sorted by
// x (slabs), each VP computes its slab hull with the monotone chain, and
// hulls merge in a binary tournament — x-disjoint hulls merge by simply
// rescanning the concatenated hull points, so each merge is linear. λ =
// O(log v) rounds; the final hull lands on VP 0.
//
// This stands in for the paper's probabilistic CGM 3D convex hull /
// Delaunay row (Figure 5, Group B, row 3): the simulation consumes only
// the round structure and h-relations, which this deterministic 2D hull
// exercises identically (see DESIGN.md, substitutions).
type hullProg struct{}

func (hullProg) Init(vp *cgm.VP[rec.R], input []rec.R) {
	vp.State = localHull(append([]rec.R(nil), input...))
}

// localHull keeps only hull points of an x-sorted record slice, in hull
// order: lower chain then upper chain reversed (monotone chain).
func localHull(pts []rec.R) []rec.R {
	if len(pts) <= 2 {
		return pts
	}
	slices.SortFunc(pts, rec.Compare)
	cross := func(o, a, b rec.R) float64 {
		return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
	}
	var lower []rec.R
	for _, p := range pts {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	var upper []rec.R
	for k := len(pts) - 1; k >= 0; k-- {
		p := pts[k]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	out := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	if len(out) == 0 { // all collinear degenerate: keep extremes
		out = []rec.R{pts[0], pts[len(pts)-1]}
	}
	return out
}

func mergeRoundsHull(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v - 1))
}

func (p hullProg) Round(vp *cgm.VP[rec.R], round int, inbox [][]rec.R) ([][]rec.R, bool) {
	v := vp.V
	K := mergeRoundsHull(v)
	var incoming []rec.R
	for _, msg := range inbox {
		incoming = append(incoming, msg...)
	}
	if len(incoming) > 0 {
		vp.State = localHull(append(vp.State, incoming...))
	}
	if round >= K {
		return nil, true
	}
	bit := 1 << round
	if vp.ID&bit != 0 && vp.ID-bit >= 0 {
		out := make([][]rec.R, v)
		out[vp.ID-bit] = vp.State
		vp.State = nil
		return out, false
	}
	return nil, false
}

func (p hullProg) Output(vp *cgm.VP[rec.R]) []rec.R { return vp.State }

// MaxContextItems: hull sizes are output-sensitive; we reserve for the
// worst case (all points on the hull of the merged range).
func (p hullProg) MaxContextItems(n, v int) int { return n + v + 8 }

// Hull computes the convex hull (counter-clockwise indices, collinear
// points dropped) on the given executor.
func Hull(e *rec.Exec, pts []workload.Point) ([]int, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	in := make([]rec.R, len(pts))
	for i, p := range pts {
		in[i] = rec.R{Tag: tHullPt, A: int64(i), X: p.X, Y: p.Y}
	}
	slabs, err := e.Run(bySlab, rec.Scatter(in, e.V))
	if err != nil {
		return nil, err
	}
	outs, err := e.Run(hullProg{}, slabs)
	if err != nil {
		return nil, err
	}
	var hull []rec.R
	for _, part := range outs {
		hull = append(hull, part...)
	}
	// hull is lower chain + reversed upper chain = CCW order already.
	res := make([]int, len(hull))
	for i, r := range hull {
		res[i] = int(r.A)
	}
	return res, nil
}

// hullPoints materialises hull indices as points.
func hullPoints(pts []workload.Point, idx []int) []workload.Point {
	out := make([]workload.Point, len(idx))
	for i, k := range idx {
		out[i] = pts[k]
	}
	return out
}

// convexDisjoint reports whether two convex polygons (CCW) are strictly
// disjoint, via the separating axis test over both polygons' edge
// normals (exact for convex shapes; degenerate polygons of 1–2 points
// are handled as points/segments).
func convexDisjoint(a, b []workload.Point) bool {
	axes := func(poly []workload.Point) [][2]float64 {
		var out [][2]float64
		n := len(poly)
		if n == 1 {
			return nil
		}
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			dx, dy := poly[j].X-poly[i].X, poly[j].Y-poly[i].Y
			out = append(out, [2]float64{-dy, dx})
		}
		return out
	}
	cand := append(axes(a), axes(b)...)
	// Point-point / point-segment degenerate: add the connecting axis.
	if len(a) >= 1 && len(b) >= 1 {
		cand = append(cand, [2]float64{b[0].X - a[0].X, b[0].Y - a[0].Y})
	}
	for _, ax := range cand {
		if ax[0] == 0 && ax[1] == 0 {
			continue
		}
		minA, maxA := math.Inf(1), math.Inf(-1)
		for _, p := range a {
			d := p.X*ax[0] + p.Y*ax[1]
			minA = math.Min(minA, d)
			maxA = math.Max(maxA, d)
		}
		minB, maxB := math.Inf(1), math.Inf(-1)
		for _, p := range b {
			d := p.X*ax[0] + p.Y*ax[1]
			minB = math.Min(minB, d)
			maxB = math.Max(maxB, d)
		}
		if maxA < minB || maxB < minA {
			return true
		}
	}
	return false
}

// Separable reports multidirectional separability: whether some line
// strictly separates the red from the blue points (Figure 5, Group B,
// row 7). It computes both CGM hulls and tests their disjointness
// (driver glue of size O(hull)).
func Separable(e *rec.Exec, red, blue []workload.Point) (bool, error) {
	if len(red) == 0 || len(blue) == 0 {
		return true, nil
	}
	hr, err := Hull(e, red)
	if err != nil {
		return false, err
	}
	hb, err := Hull(e, blue)
	if err != nil {
		return false, err
	}
	return convexDisjoint(hullPoints(red, hr), hullPoints(blue, hb)), nil
}

// SeparableInDirection reports unidirectional separability along d:
// whether a hyperplane normal to d separates red (below) from blue
// (above). One CGM reduction round over projections.
type dirSep struct {
	DX, DY float64
}

func (dirSep) Init(vp *cgm.VP[rec.R], input []rec.R) {
	vp.State = append([]rec.R(nil), input...)
}

func (p dirSep) Round(vp *cgm.VP[rec.R], round int, inbox [][]rec.R) ([][]rec.R, bool) {
	v := vp.V
	switch round {
	case 0:
		maxR, minB := math.Inf(-1), math.Inf(1)
		for _, r := range vp.State {
			d := r.X*p.DX + r.Y*p.DY
			if r.B == 0 {
				maxR = math.Max(maxR, d)
			} else {
				minB = math.Min(minB, d)
			}
		}
		out := make([][]rec.R, v)
		out[0] = []rec.R{{Tag: tVal2, X: maxR, Y: minB}}
		return out, false
	default:
		if vp.ID == 0 {
			maxR, minB := math.Inf(-1), math.Inf(1)
			for _, msg := range inbox {
				for _, m := range msg {
					maxR = math.Max(maxR, m.X)
					minB = math.Min(minB, m.Y)
				}
			}
			sep := int64(0)
			if maxR < minB {
				sep = 1
			}
			vp.State = []rec.R{{Tag: tVal2, A: sep}}
		} else {
			vp.State = nil
		}
		return nil, true
	}
}

func (dirSep) Output(vp *cgm.VP[rec.R]) []rec.R { return vp.State }

func (dirSep) MaxContextItems(n, v int) int { return (n+v-1)/v + 4 }

const tVal2 int64 = 850

// SeparableInDirection reports whether max over red of ⟨p,d⟩ is strictly
// below min over blue of ⟨p,d⟩.
func SeparableInDirection(e *rec.Exec, red, blue []workload.Point, dx, dy float64) (bool, error) {
	var in []rec.R
	for i, p := range red {
		in = append(in, rec.R{Tag: tHullPt, A: int64(i), B: 0, X: p.X, Y: p.Y})
	}
	for i, p := range blue {
		in = append(in, rec.R{Tag: tHullPt, A: int64(i), B: 1, X: p.X, Y: p.Y})
	}
	outs, err := e.Run(dirSep{DX: dx, DY: dy}, rec.Scatter(in, e.V))
	if err != nil {
		return false, err
	}
	for _, part := range outs {
		for _, r := range part {
			if r.Tag == tVal2 {
				return r.A == 1, nil
			}
		}
	}
	return false, nil
}
