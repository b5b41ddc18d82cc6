// Package graph implements the paper's Group C algorithms (Figure 5):
// list ranking, Euler tour of a tree, rooted-tree functions, lowest common
// ancestors, tree contraction / expression tree evaluation, connected
// components, spanning forest, biconnected components and ear
// decomposition — each as a composition of CGM phases over rec.R records
// (run in memory or under the EM-CGM simulation via rec.Exec), plus the
// sequential reference implementations used as test oracles and as the
// T(A) baseline of the cost model.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// ListRankSeq returns rank[i] = number of hops from node i to the list
// tail (the node whose successor is itself). succ must describe a single
// list covering all nodes.
func ListRankSeq(succ []int64) []int64 {
	n := len(succ)
	rank := make([]int64, n)
	// Find the tail, then walk backwards via an inverted array.
	prev := make([]int64, n)
	for i := range prev {
		prev[i] = -1
	}
	tail := int64(-1)
	for i, s := range succ {
		if s == int64(i) {
			tail = int64(i)
		} else {
			prev[s] = int64(i)
		}
	}
	if tail < 0 {
		panic("graph: list has no tail")
	}
	r := int64(0)
	for cur := tail; cur >= 0; cur = prev[cur] {
		rank[cur] = r
		r++
	}
	return rank
}

// CCSeq labels each vertex with the smallest vertex id in its connected
// component.
func CCSeq(n int, edges []workload.Edge) []int64 {
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
	for _, e := range edges {
		ru, rv := find(int(e.U)), find(int(e.V))
		if ru != rv {
			parent[ru] = rv
		}
	}
	minOf := make([]int64, n)
	for i := range minOf {
		minOf[i] = int64(n)
	}
	for v := 0; v < n; v++ {
		r := find(v)
		if int64(v) < minOf[r] {
			minOf[r] = int64(v)
		}
	}
	labels := make([]int64, n)
	for v := 0; v < n; v++ {
		labels[v] = minOf[find(v)]
	}
	return labels
}

// TreeFnsSeq computes depth, preorder number and subtree size for every
// node of the rooted tree given as a parent array (parent[root] = root).
// Children are visited in increasing id order, matching the CGM Euler
// tour's neighbour ordering.
func TreeFnsSeq(parent []int64, root int64) (depth, pre, size []int64) {
	n := len(parent)
	children := make([][]int64, n)
	for v := 0; v < n; v++ {
		if int64(v) != root {
			children[parent[v]] = append(children[parent[v]], int64(v))
		}
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	depth = make([]int64, n)
	pre = make([]int64, n)
	size = make([]int64, n)
	// Iterative DFS.
	type frame struct {
		node int64
		next int
	}
	stack := []frame{{node: root}}
	depth[root] = 0
	counter := int64(0)
	pre[root] = counter
	counter++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(children[f.node]) {
			c := children[f.node][f.next]
			f.next++
			depth[c] = depth[f.node] + 1
			pre[c] = counter
			counter++
			stack = append(stack, frame{node: c})
		} else {
			size[f.node] = 1
			for _, c := range children[f.node] {
				size[f.node] += size[c]
			}
			stack = stack[:len(stack)-1]
		}
	}
	return depth, pre, size
}

// LCASeq answers lowest-common-ancestor queries by lifting the deeper
// node, O(depth) per query — the simple oracle.
func LCASeq(parent []int64, root int64, queries [][2]int64) []int64 {
	depth, _, _ := TreeFnsSeq(parent, root)
	out := make([]int64, len(queries))
	for i, q := range queries {
		u, v := q[0], q[1]
		for depth[u] > depth[v] {
			u = parent[u]
		}
		for depth[v] > depth[u] {
			v = parent[v]
		}
		for u != v {
			u, v = parent[u], parent[v]
		}
		out[i] = u
	}
	return out
}

// ExprEvalSeq evaluates the expression tree rooted at node 0.
func ExprEvalSeq(nodes []workload.ExprNode) int64 {
	memo := make([]int64, len(nodes))
	done := make([]bool, len(nodes))
	var eval func(int64) int64
	eval = func(i int64) int64 {
		if done[i] {
			return memo[i]
		}
		nd := nodes[i]
		var v int64
		switch nd.Op {
		case 0:
			v = nd.Value
		case '+':
			v = eval(nd.L) + eval(nd.R)
		case '*':
			v = eval(nd.L) * eval(nd.R)
		default:
			panic(fmt.Sprintf("graph: bad op %q", nd.Op))
		}
		memo[i] = v
		done[i] = true
		return v
	}
	return eval(0)
}

// BicompSeq labels each edge with a biconnected-component id (Tarjan's
// algorithm, iterative). Edge ids are indices into edges; isolated labels
// are arbitrary but equal within a block. Self-loops are rejected.
func BicompSeq(n int, edges []workload.Edge) []int64 {
	adj := make([][][2]int, n) // (neighbour, edge id)
	for i, e := range edges {
		if e.U == e.V {
			panic("graph: self loop")
		}
		adj[e.U] = append(adj[e.U], [2]int{int(e.V), i})
		adj[e.V] = append(adj[e.V], [2]int{int(e.U), i})
	}
	label := make([]int64, len(edges))
	for i := range label {
		label[i] = -1
	}
	num := make([]int, n)
	low := make([]int, n)
	for i := range num {
		num[i] = -1
	}
	var stack []int // edge ids
	counter := 0
	blocks := int64(0)

	type frame struct {
		v, parentEdge, next int
	}
	for s := 0; s < n; s++ {
		if num[s] != -1 {
			continue
		}
		frames := []frame{{v: s, parentEdge: -1}}
		num[s] = counter
		low[s] = counter
		counter++
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for f.next < len(adj[v]) {
				w, eid := adj[v][f.next][0], adj[v][f.next][1]
				f.next++
				if eid == f.parentEdge {
					continue
				}
				if num[w] == -1 {
					stack = append(stack, eid)
					num[w] = counter
					low[w] = counter
					counter++
					frames = append(frames, frame{v: w, parentEdge: eid})
					advanced = true
					break
				}
				if num[w] < num[v] {
					stack = append(stack, eid)
					if num[w] < low[v] {
						low[v] = num[w]
					}
				}
			}
			if advanced {
				continue
			}
			treeEdge := f.parentEdge
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				pf := &frames[len(frames)-1]
				u := pf.v
				if low[v] < low[u] {
					low[u] = low[v]
				}
				if low[v] >= num[u] {
					// u is an articulation point (or the DFS root): the
					// edges above and including the tree edge u–v form a
					// block.
					for {
						eid := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						label[eid] = blocks
						if eid == treeEdge {
							break
						}
					}
					blocks++
				}
			}
		}
	}
	return label
}
