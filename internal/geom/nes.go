package geom

import (
	"math"
	"sort"

	"repro/internal/cgm"
	"repro/internal/rec"
	"repro/internal/workload"
)

// Tags for the next-element-search program.
const (
	tNSeg int64 = iota + 900 // segment: A=id, X=x1, Y=x2, B=y1 bits, C=y2 bits
	tNQry                    // query point: A=id, X=x, Y=y, B=home vp
	tNSam                    // boundary sample: X=x
	tNAns                    // answer: A=id, B=segment id (-1 none)
)

// nextAbove is the CGM slab program for batched next-element search on
// non-crossing segments (Figure 5, Group B, rows 1–2): slab boundaries
// are sampled and agreed, segments are routed to every slab they span,
// queries to the single slab containing them; each slab answers its
// queries against its local segment set. λ = O(1) rounds. Trapezoidal
// decomposition and batched planar point location are derived from it
// (see TrapezoidalDecomposition and LocatePoints).
type nextAbove struct {
	Down bool // search downward (next element below) instead
}

func (nextAbove) Init(vp *cgm.VP[rec.R], input []rec.R) {
	vp.State = append([]rec.R(nil), input...)
}

func (p nextAbove) Round(vp *cgm.VP[rec.R], round int, inbox [][]rec.R) ([][]rec.R, bool) {
	v := vp.V
	switch round {
	case 0:
		// Sample local segment left-ends and query xs together.
		var xs []float64
		for _, r := range vp.State {
			xs = append(xs, r.X)
		}
		sort.Float64s(xs)
		out := make([][]rec.R, v)
		m := len(xs)
		for k := 0; k < v && k < m; k++ {
			s := rec.R{Tag: tNSam, X: xs[k*m/v]}
			for d := 0; d < v; d++ {
				out[d] = append(out[d], s)
			}
		}
		return out, false

	case 1:
		var samples []float64
		for _, msg := range inbox {
			for _, m := range msg {
				if m.Tag == tNSam {
					samples = append(samples, m.X)
				}
			}
		}
		bs := slabBoundaries(v, samples)
		out := make([][]rec.R, v)
		for _, r := range vp.State {
			switch r.Tag {
			case tNSeg:
				for s := 0; s < v; s++ {
					lo, hi := slabRangeOf(s, v, bs)
					if r.X <= hi && r.Y >= lo { // closed span vs slab
						out[s] = append(out[s], r)
					}
				}
			case tNQry:
				s := sort.SearchFloat64s(bs, r.X) // first boundary > x ... slab index
				q := r
				q.B = int64(vp.ID)
				out[s] = append(out[s], q)
			}
		}
		vp.State = nil
		return out, false

	case 2:
		var segs []rec.R
		var qs []rec.R
		for _, msg := range inbox {
			for _, m := range msg {
				switch m.Tag {
				case tNSeg:
					segs = append(segs, m)
				case tNQry:
					qs = append(qs, m)
				}
			}
		}
		out := make([][]rec.R, v)
		for _, q := range qs {
			best, by := int64(-1), math.Inf(1)
			if p.Down {
				by = math.Inf(-1)
			}
			for _, sr := range segs {
				if q.X < sr.X || q.X > sr.Y {
					continue
				}
				s := workload.Segment{X1: sr.X, Y1: rec.I2F(sr.B), X2: sr.Y, Y2: rec.I2F(sr.C)}
				y := SegAt(s, q.X)
				if !p.Down {
					if y >= q.Y && y < by {
						by, best = y, sr.A
					}
				} else {
					if y <= q.Y && y > by {
						by, best = y, sr.A
					}
				}
			}
			out[q.B] = append(out[q.B], rec.R{Tag: tNAns, A: q.A, B: best})
		}
		return out, false

	default:
		var outs []rec.R
		for _, msg := range inbox {
			for _, m := range msg {
				if m.Tag == tNAns {
					outs = append(outs, m)
				}
			}
		}
		vp.State = outs
		return nil, true
	}
}

func (nextAbove) Output(vp *cgm.VP[rec.R]) []rec.R { return vp.State }

func (nextAbove) MaxContextItems(n, v int) int { return 4*((n+v-1)/v) + 2*v + 16 }

func nesRun(e *rec.Exec, ss []workload.Segment, qs []workload.Point, down bool) ([]int, error) {
	var in []rec.R
	for i, s := range ss {
		x1, x2 := s.X1, s.X2
		y1, y2 := s.Y1, s.Y2
		if x1 > x2 {
			x1, x2 = x2, x1
			y1, y2 = y2, y1
		}
		in = append(in, rec.R{Tag: tNSeg, A: int64(i), X: x1, Y: x2, B: rec.F2I(y1), C: rec.F2I(y2)})
	}
	for i, q := range qs {
		in = append(in, rec.R{Tag: tNQry, A: int64(i), X: q.X, Y: q.Y})
	}
	outs, err := e.Run(nextAbove{Down: down}, rec.Scatter(in, e.V))
	if err != nil {
		return nil, err
	}
	res := make([]int, len(qs))
	for i := range res {
		res[i] = -1
	}
	for _, part := range outs {
		for _, r := range part {
			if r.Tag == tNAns {
				res[r.A] = int(r.B)
			}
		}
	}
	return res, nil
}

// NextAbove answers batched next-element-search queries: for each query
// point, the index of the segment directly above it (-1 if none).
func NextAbove(e *rec.Exec, ss []workload.Segment, qs []workload.Point) ([]int, error) {
	return nesRun(e, ss, qs, false)
}

// Trapezoid describes one vertical extension of the trapezoidal
// decomposition: from segment endpoint (X, Y) the segment directly above
// (Above) and below (Below), -1 for unbounded.
type Trapezoid struct {
	X, Y         float64
	Above, Below int
}

// TrapezoidalDecomposition computes, for every segment endpoint, its
// vertical visibility (the segments immediately above and below) — the
// trapezoidation of the non-crossing segment set (Figure 5, Group B,
// row 1). The query set is the 2n endpoints, nudged off their own
// segment.
func TrapezoidalDecomposition(e *rec.Exec, ss []workload.Segment) ([]Trapezoid, error) {
	qs := make([]workload.Point, 0, 2*len(ss))
	for _, s := range ss {
		qs = append(qs, workload.Point{X: s.X1, Y: s.Y1}, workload.Point{X: s.X2, Y: s.Y2})
	}
	above, err := NextAbove(e, ss, qs)
	if err != nil {
		return nil, err
	}
	below, err := nesRun(e, ss, qs, true)
	if err != nil {
		return nil, err
	}
	out := make([]Trapezoid, len(qs))
	for i, q := range qs {
		out[i] = Trapezoid{X: q.X, Y: q.Y, Above: above[i], Below: below[i]}
	}
	return out, nil
}

// LocatePoints performs batched planar point location in a subdivision
// whose faces are identified by the segment bounding them from below:
// each query returns the face label of the segment directly below it
// (faces[seg]), or -1 when the query sees no segment below (the outer
// face). faces must have one label per segment — its "above" face.
func LocatePoints(e *rec.Exec, ss []workload.Segment, faces []int, qs []workload.Point) ([]int, error) {
	below, err := nesRun(e, ss, qs, true)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(qs))
	for i, b := range below {
		if b < 0 {
			out[i] = -1
		} else {
			out[i] = faces[b]
		}
	}
	return out, nil
}
