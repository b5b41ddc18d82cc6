// Package geom implements the paper's Group B algorithms (Figure 5):
// 3D-maxima, 2D weighted dominance counting, area of union of rectangles,
// all nearest neighbours, lower envelope of non-intersecting segments,
// 2D convex hulls, uni- and multi-directional separability, next-element
// search / trapezoidal decomposition, batched planar point location, and
// x-monotone polygon triangulation — each as CGM phase compositions over
// rec.R records (runnable in memory or under the EM-CGM simulation), plus
// sequential reference implementations used as test oracles.
//
// Coordinates are assumed pairwise distinct where dominance relations are
// involved (the workload generators produce distinct floats almost
// surely); see DESIGN.md.
package geom

import (
	"math"
	"sort"

	"repro/internal/workload"
)

// Maxima3DSeq flags the maximal points: p is maximal iff no other point
// strictly dominates it in all three coordinates.
func Maxima3DSeq(pts []workload.Point3) []bool {
	out := make([]bool, len(pts))
	for i, p := range pts {
		maximal := true
		for j, q := range pts {
			if i != j && q.X > p.X && q.Y > p.Y && q.Z > p.Z {
				maximal = false
				break
			}
		}
		out[i] = maximal
	}
	return out
}

// DominanceSeq returns, for each point, the total weight of other points
// dominated by it: Σ w(q) over q ≠ p with q.x ≤ p.x and q.y ≤ p.y.
func DominanceSeq(pts []workload.Point, w []float64) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		for j, q := range pts {
			if i != j && q.X <= p.X && q.Y <= p.Y {
				out[i] += w[j]
			}
		}
	}
	return out
}

// UnionAreaSeq computes the area of the union of rectangles by
// coordinate-compressed grid accumulation.
func UnionAreaSeq(rs []workload.Rect) float64 {
	if len(rs) == 0 {
		return 0
	}
	xs := make([]float64, 0, 2*len(rs))
	ys := make([]float64, 0, 2*len(rs))
	for _, r := range rs {
		xs = append(xs, r.X1, r.X2)
		ys = append(ys, r.Y1, r.Y2)
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	xs = dedup(xs)
	ys = dedup(ys)
	area := 0.0
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			cx, cy := (xs[i]+xs[i+1])/2, (ys[j]+ys[j+1])/2
			for _, r := range rs {
				if r.X1 <= cx && cx <= r.X2 && r.Y1 <= cy && cy <= r.Y2 {
					area += (xs[i+1] - xs[i]) * (ys[j+1] - ys[j])
					break
				}
			}
		}
	}
	return area
}

func dedup(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// ANNSeq returns, for each point, the index of its nearest neighbour
// (Euclidean), -1 for a singleton input.
func ANNSeq(pts []workload.Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		best, bd := -1, math.Inf(1)
		for j, q := range pts {
			if i == j {
				continue
			}
			d := (p.X-q.X)*(p.X-q.X) + (p.Y-q.Y)*(p.Y-q.Y)
			if d < bd || (d == bd && j < best) {
				bd, best = d, j
			}
		}
		out[i] = best
	}
	return out
}

// SegAt evaluates segment s at coordinate x (s must span x).
func SegAt(s workload.Segment, x float64) float64 {
	if s.X2 == s.X1 {
		return math.Min(s.Y1, s.Y2)
	}
	t := (x - s.X1) / (s.X2 - s.X1)
	return s.Y1 + t*(s.Y2-s.Y1)
}

// EnvelopeSeq computes the lower envelope of non-crossing segments: the
// sequence of (xLeft, segment index) pieces in x order; index -1 means no
// segment is present on that interval. Consecutive pieces with the same
// index are merged.
func EnvelopeSeq(ss []workload.Segment) []EnvPiece {
	if len(ss) == 0 {
		return nil
	}
	var events []float64
	for _, s := range ss {
		events = append(events, s.X1, s.X2)
	}
	sort.Float64s(events)
	events = dedup(events)
	var out []EnvPiece
	for i := 0; i+1 < len(events); i++ {
		mid := (events[i] + events[i+1]) / 2
		best, by := -1, math.Inf(1)
		for j, s := range ss {
			if s.X1 <= mid && mid <= s.X2 {
				y := SegAt(s, mid)
				if y < by {
					by, best = y, j
				}
			}
		}
		if len(out) == 0 || out[len(out)-1].Seg != best {
			out = append(out, EnvPiece{XLeft: events[i], Seg: best})
		}
	}
	return out
}

// EnvPiece is one piece of a lower envelope: from XLeft to the next
// piece's XLeft the lowest segment is Seg.
type EnvPiece struct {
	XLeft float64
	Seg   int
}

// HullSeq returns the convex hull of the points in counter-clockwise
// order as indices (Andrew's monotone chain; collinear points dropped).
func HullSeq(pts []workload.Point) []int {
	n := len(pts)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	cross := func(o, a, b workload.Point) float64 {
		return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
	}
	var lower, upper []int
	for _, i := range idx {
		for len(lower) >= 2 && cross(pts[lower[len(lower)-2]], pts[lower[len(lower)-1]], pts[i]) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, i)
	}
	for k := n - 1; k >= 0; k-- {
		i := idx[k]
		for len(upper) >= 2 && cross(pts[upper[len(upper)-2]], pts[upper[len(upper)-1]], pts[i]) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, i)
	}
	if n == 1 {
		return []int{idx[0]}
	}
	return append(lower[:len(lower)-1], upper[:len(upper)-1]...)
}

// SeparableSeq reports whether a line strictly separates red from blue
// (multidirectional separability oracle): brute force over candidate
// directions induced by point pairs. If the hulls are disjoint, their
// closest points are two vertices or a vertex and an edge, so some
// separating direction is a pair difference or perpendicular to one.
func SeparableSeq(red, blue []workload.Point) bool {
	var dirs []workload.Point
	all := append(append([]workload.Point(nil), red...), blue...)
	for i := range all {
		for j := range all {
			if i == j {
				continue
			}
			dx, dy := all[j].X-all[i].X, all[j].Y-all[i].Y
			dirs = append(dirs, workload.Point{X: dx, Y: dy}, workload.Point{X: -dy, Y: dx}, workload.Point{X: dy, Y: -dx})
		}
	}
	dirs = append(dirs, workload.Point{X: 1, Y: 0}, workload.Point{X: 0, Y: 1})
	for _, d := range dirs {
		maxR, minB := math.Inf(-1), math.Inf(1)
		for _, p := range red {
			maxR = math.Max(maxR, p.X*d.X+p.Y*d.Y)
		}
		for _, p := range blue {
			minB = math.Min(minB, p.X*d.X+p.Y*d.Y)
		}
		if maxR < minB {
			return true
		}
	}
	return false
}

// NextAboveSeq returns, for each query point, the index of the segment
// directly above it (smallest y at the query's x among segments spanning
// that x with y ≥ query y), or -1.
func NextAboveSeq(ss []workload.Segment, qs []workload.Point) []int {
	out := make([]int, len(qs))
	for i, q := range qs {
		best, by := -1, math.Inf(1)
		for j, s := range ss {
			lo, hi := s.X1, s.X2
			if lo > hi {
				lo, hi = hi, lo
			}
			if q.X < lo || q.X > hi {
				continue
			}
			y := SegAt(s, q.X)
			if y >= q.Y && y < by {
				by, best = y, j
			}
		}
		out[i] = best
	}
	return out
}

// PolyArea returns the signed area of a polygon.
func PolyArea(poly []workload.Point) float64 {
	a := 0.0
	for i := range poly {
		j := (i + 1) % len(poly)
		a += poly[i].X*poly[j].Y - poly[j].X*poly[i].Y
	}
	return a / 2
}

// TriArea returns the absolute area of a triangle.
func TriArea(a, b, c workload.Point) float64 {
	return math.Abs((b.X-a.X)*(c.Y-a.Y)-(b.Y-a.Y)*(c.X-a.X)) / 2
}
