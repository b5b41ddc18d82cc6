package graph

import (
	"math/bits"

	"repro/internal/cgm"
	"repro/internal/rec"
	"repro/internal/workload"
)

// connComp is the CGM connected-components / spanning-forest program
// (Figure 5, Group C2): each virtual processor reduces its local edge set
// to a spanning forest with union-find, then forests are merged in a
// binary tournament — λ = ⌈log₂ v⌉ + O(1) communication rounds, exactly
// the O(log v) round count the paper's table lists. The final forest
// (≤ n−1 edges) lives at VP 0, which labels every vertex with the
// smallest vertex id of its component and scatters the labels back to the
// vertex owners.
//
// Coarse-grained requirement: n (vertices) = O((V+E)/v) so a forest fits
// in one virtual processor's memory — the standard CGM CC slackness.
type connComp struct {
	NVert int
}

func (p connComp) Init(vp *cgm.VP[rec.R], input []rec.R) {
	// Reduce the local edges immediately to a forest.
	vp.State = reduceForest(input)
}

// reduceForest returns a spanning forest (as tForest records carrying the
// original edge ids) of the given edge records.
func reduceForest(edges []rec.R) []rec.R {
	parent := map[int64]int64{}
	var find func(int64) int64
	find = func(x int64) int64 {
		for {
			p, ok := parent[x]
			if !ok || p == x {
				return x
			}
			gp, ok2 := parent[p]
			if ok2 {
				parent[x] = gp
			}
			x = p
		}
	}
	var forest []rec.R
	for _, e := range edges {
		ru, rv := find(e.A), find(e.B)
		if ru != rv {
			parent[ru] = rv
			forest = append(forest, rec.R{Tag: tForest, A: e.A, B: e.B, C: e.C})
		}
	}
	return forest
}

func (p connComp) mergeRounds(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v - 1))
}

func (p connComp) Round(vp *cgm.VP[rec.R], round int, inbox [][]rec.R) ([][]rec.R, bool) {
	v := vp.V
	K := p.mergeRounds(v)
	switch {
	case round < K:
		// Tournament merge round `round`: absorb what arrived, then either
		// send our forest down or keep merging.
		var incoming []rec.R
		for _, msg := range inbox {
			incoming = append(incoming, msg...)
		}
		if len(incoming) > 0 {
			vp.State = reduceForest(append(append([]rec.R(nil), vp.State...), incoming...))
		}
		bit := 1 << round
		if vp.ID&bit != 0 && vp.ID-bit >= 0 {
			out := make([][]rec.R, v)
			out[vp.ID-bit] = vp.State
			vp.State = nil
			return out, false
		}
		return nil, false

	case round == K:
		// Final absorb at the receivers; VP 0 computes labels and
		// scatters them to vertex owners; it also keeps the global forest.
		var incoming []rec.R
		for _, msg := range inbox {
			incoming = append(incoming, msg...)
		}
		if len(incoming) > 0 {
			vp.State = reduceForest(append(append([]rec.R(nil), vp.State...), incoming...))
		}
		if vp.ID != 0 {
			return nil, false
		}
		labels := labelsFromForest(p.NVert, vp.State)
		out := make([][]rec.R, v)
		for vtx, lab := range labels {
			d := cgm.Owner(p.NVert, v, vtx)
			out[d] = append(out[d], rec.R{Tag: tLabel, A: int64(vtx), B: lab})
		}
		return out, false

	default:
		// Receive labels; VP 0 keeps forest records too.
		var labels []rec.R
		for _, msg := range inbox {
			for _, r := range msg {
				if r.Tag == tLabel {
					labels = append(labels, r)
				}
			}
		}
		if vp.ID == 0 {
			vp.State = append(vp.State, labels...)
		} else {
			vp.State = labels
		}
		return nil, true
	}
}

// labelsFromForest computes, for each vertex, the smallest vertex id in
// its component of the forest.
func labelsFromForest(n int, forest []rec.R) []int64 {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range forest {
		parent[find(int(e.A))] = find(int(e.B))
	}
	minOf := make([]int64, n)
	for i := range minOf {
		minOf[i] = int64(n)
	}
	for vtx := 0; vtx < n; vtx++ {
		r := find(vtx)
		if int64(vtx) < minOf[r] {
			minOf[r] = int64(vtx)
		}
	}
	labels := make([]int64, n)
	for vtx := 0; vtx < n; vtx++ {
		labels[vtx] = minOf[find(vtx)]
	}
	return labels
}

func (p connComp) Output(vp *cgm.VP[rec.R]) []rec.R { return vp.State }

// MaxContextItems: a forest of ≤ NVert edges plus the scattered labels.
func (p connComp) MaxContextItems(n, v int) int {
	return p.NVert + (p.NVert+v-1)/v + (n+v-1)/v + 8
}

// ConnectedComponents labels each vertex of the n-vertex graph with the
// smallest vertex id in its connected component, and returns a spanning
// forest as indices into edges.
func ConnectedComponents(e *rec.Exec, n int, edges []workload.Edge) ([]int64, []int, error) {
	if n == 0 {
		return nil, nil, nil
	}
	in := make([]rec.R, len(edges))
	for i, ed := range edges {
		in[i] = rec.R{Tag: tEdge, A: ed.U, B: ed.V, C: int64(i)}
	}
	outs, err := e.Run(connComp{NVert: n}, rec.Scatter(in, e.V))
	if err != nil {
		return nil, nil, err
	}
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = int64(i) // isolated vertices label themselves
	}
	var forest []int
	for _, part := range outs {
		for _, r := range part {
			switch r.Tag {
			case tLabel:
				labels[r.A] = r.B
			case tForest:
				forest = append(forest, int(r.C))
			}
		}
	}
	return labels, forest, nil
}
