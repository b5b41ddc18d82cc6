package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/rec"
	"repro/internal/segtree"
	"repro/internal/sortalg"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/transpose"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// fig5D is the disk count of every Figure 5 machine.
const fig5D = 2

// Problem is one row of the paper's Figure 5: a problem, the I/O class
// the paper claims for it, and its run at n items on a Scale's machine.
// Fig5 prints the catalogue; BenchmarkFig5Group<Group> times it.
type Problem struct {
	Group, Name, Class, Note string
	Bench                    string // sub-benchmark name under BenchmarkFig5Group<Group>

	baseline bool // the classical PDM sort: one processor, no EM-CGM run
	run      func(s Scale, n int) (rounds int, ops int64, err error)
}

// Measurement is one run of a Figure 5 row. Constant is
// Ops / (N/(pDB)), which Theorems 2–4 predict to be Θ(λ): flat in N for
// the O(N/pDB) class and growing with log for the log classes.
type Measurement struct {
	Rounds   int
	Ops      int64
	Constant float64
}

// N is the row's base size: Group A runs at Scale.N, the composite
// Groups B and C at N/8.
func (p Problem) N(s Scale) int {
	if p.Group == "A" {
		return s.N
	}
	return s.N / 8
}

// Measure runs the row at n items. The ledger, if any, names the row's
// last EM-CGM run (a composite row's last phase) "<Bench> n=<n>".
func (p Problem) Measure(s Scale, n int) (Measurement, error) {
	rounds, ops, err := p.run(s, n)
	if err != nil {
		return Measurement{}, fmt.Errorf("fig5 %s n=%d: %w", p.Bench, n, err)
	}
	procs := s.P
	if p.baseline {
		procs = 1
	} else {
		s.Ledger.SetRunName(fmt.Sprintf("%s n=%d", p.Bench, n))
	}
	return Measurement{rounds, ops, theory.IOConstant(ops, n, procs, fig5D, s.B)}, nil
}

// measured reads a row's rounds and parallel I/Os off one EM-CGM run.
func measured[O, T any](_ O, res *core.Result[T], err error) (int, int64, error) {
	if err != nil {
		return 0, 0, err
	}
	return res.Rounds, res.IO.ParallelOps, nil
}

// composite runs every phase of a Group B or C algorithm on one executor
// of the row's machine; the row reports the phases' sums.
func composite(f func(e *rec.Exec, n int) error) func(Scale, int) (int, int64, error) {
	return func(s Scale, n int) (int, int64, error) {
		e := &rec.Exec{Config: s.machine(s.P, fig5D), EM: true}
		if err := f(e, n); err != nil {
			return 0, 0, err
		}
		return e.Rounds, e.IO.ParallelOps, nil
	}
}

// Fig5Problems is the Figure 5 catalogue: Group A's sorting,
// permutation and transpose with the PDM mergesort baseline, then the
// geometry of Group B and the graphs of Group C.
var Fig5Problems = []Problem{
	{Group: "A", Name: "sorting (EM-CGM, PSRS)", Class: "O(N/pDB)", Bench: "sort-emcgm",
		run: func(s Scale, n int) (int, int64, error) {
			return measured(sortalg.EMSort(workload.Int64s(int64(n), n), wordcodec.I64{}, s.machine(s.P, fig5D)))
		}},
	{Group: "A", Name: "sorting (PDM mergesort baseline)", Class: "O(N/DB·log_{M/B}N/B)", Bench: "sort-pdm-baseline",
		Note: "constant grows with N (log factor); M=3DB, fan-in 2", baseline: true,
		run: func(s Scale, n int) (int, int64, error) {
			// Small memory exposes the log factor.
			_, info, err := sortalg.MergeSort(pdm.NewMemArray(fig5D, s.B), workload.Uint64s(int64(n), n), 1, 3*fig5D*s.B)
			return info.Passes + 1, info.SortOps, err
		}},
	{Group: "A", Name: "permutation (CGMPermute)", Class: "O(N/pDB)", Bench: "permute", Note: "2 words/item",
		run: func(s Scale, n int) (int, int64, error) {
			vals, dests := workload.Int64s(int64(n), n), workload.Permutation(int64(n)+1, n)
			return measured(permute.EMPermute(vals, dests, s.machine(s.P, fig5D)))
		}},
	{Group: "A", Name: "matrix transpose (CGMTranspose)", Class: "O(N/pDB)", Bench: "transpose", Note: "128×N/128 matrix",
		run: func(s Scale, n int) (int, int64, error) {
			const k = 128
			return measured(transpose.EMTranspose(workload.Int64s(int64(n), n/k*k), k, n/k, s.machine(s.P, fig5D)))
		}},

	{Group: "B", Name: "trapezoidal decomposition", Class: "O(N log N/pDB)", Bench: "trapezoidal-decomposition",
		Note: "next-element search on 2n endpoints",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := geom.TrapezoidalDecomposition(e, workload.NonIntersectingSegments(int64(n), n/2))
			return err
		})},
	{Group: "B", Name: "batched planar point location", Class: "O(N log N/pDB)", Bench: "point-location",
		run: composite(func(e *rec.Exec, n int) error {
			ss := workload.NonIntersectingSegments(int64(n), n/2)
			faces := make([]int, len(ss))
			for i := range faces {
				faces[i] = i
			}
			_, err := geom.LocatePoints(e, ss, faces, workload.Points(int64(n)+2, n/2))
			return err
		})},
	{Group: "B", Name: "2D convex hull (for 3D hull row)", Class: "O(N log N/pDB)", Bench: "convex-hull",
		Note: "substitution for the probabilistic 3D hull/Delaunay; see DESIGN.md",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := geom.Hull(e, workload.Points(int64(n), n))
			return err
		})},
	{Group: "B", Name: "lower envelope of segments", Class: "O(N log N/pDB)", Bench: "lower-envelope",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := geom.Envelope(e, workload.NonIntersectingSegments(int64(n), n))
			return err
		})},
	{Group: "B", Name: "area of union of rectangles", Class: "O(N log N/pDB)", Bench: "union-area",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := geom.UnionArea(e, workload.Rects(int64(n), n, 0.05))
			return err
		})},
	{Group: "B", Name: "3D maxima", Class: "O(N log N/pDB)", Bench: "maxima3d", Note: "grid decomposition, exact",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := geom.Maxima3D(e, workload.Points3(int64(n), n))
			return err
		})},
	{Group: "B", Name: "2D nearest neighbours (ANN)", Class: "O(N log N/pDB)", Bench: "ann",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := geom.ANN(e, workload.Points(int64(n), n))
			return err
		})},
	{Group: "B", Name: "2D weighted dominance counting", Class: "O(N/pDB)", Bench: "dominance",
		run: composite(func(e *rec.Exec, n int) error {
			w := make([]float64, n)
			for i := range w {
				w[i] = 1
			}
			_, err := geom.Dominance(e, workload.Points(int64(n), n), w)
			return err
		})},
	{Group: "B", Name: "multidirectional separability", Class: "O(N/pDB)", Bench: "separability", Note: "via two CGM hulls",
		run: composite(func(e *rec.Exec, n int) error {
			blue := workload.Points(int64(n)+1, n/2)
			for i := range blue {
				blue[i].X += 2
			}
			_, err := geom.Separable(e, workload.Points(int64(n), n/2), blue)
			return err
		})},
	{Group: "B", Name: "unidirectional separability", Class: "O(N/pDB)", Bench: "unidirectional-separability",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := geom.SeparableInDirection(e, workload.Points(int64(n), n/2), workload.Points(int64(n)+1, n/2), 1, 0)
			return err
		})},
	{Group: "B", Name: "segment tree construction+queries", Class: "O(N log N/pDB)", Bench: "segment-tree",
		Note: "distributed slab segment tree, n range-sum queries",
		run: composite(func(e *rec.Exec, n int) error {
			values := make([]rec.R, n)
			queries := make([]segtree.Query, n)
			for i := range n {
				values[i] = rec.R{A: int64(i), B: int64(i % 13)}
				l := int64((i * 31) % n)
				queries[i] = segtree.Query{ID: int64(i), L: l, R: min(l+int64((i*17)%n)/4+1, int64(n))}
			}
			_, err := segtree.Run(e, segtree.SumB(n), values, queries)
			return err
		})},
	{Group: "B", Name: "polygon triangulation (x-monotone)", Class: "O(N log N/pDB)", Bench: "triangulation",
		Note: "Steiner points at slab boundaries",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := geom.Triangulate(e, geom.RandomMonotonePolygon(int64(n), n))
			return err
		})},

	{Group: "C", Name: "list ranking", Class: "O(N log N/pDB)", Bench: "list-ranking",
		Note: "pointer jumping: log N rounds (paper: log v via ruling sets)",
		run: composite(func(e *rec.Exec, n int) error {
			succ, _ := workload.List(int64(n), n)
			_, err := graph.ListRank(e, succ)
			return err
		})},
	{Group: "C", Name: "Euler tour + tree functions", Class: "O(N log N/pDB)", Bench: "euler-tour-tree-funcs",
		Note: "depth, preorder, subtree size",
		run: composite(func(e *rec.Exec, n int) error {
			parent, root := workload.Tree(int64(n), n)
			_, _, _, err := graph.TreeFuncs(e, parent, root)
			return err
		})},
	{Group: "C", Name: "lowest common ancestors", Class: "O(N log N/pDB)", Bench: "lca", Note: "Euler tour + distributed RMQ",
		run: composite(func(e *rec.Exec, n int) error {
			parent, root := workload.Tree(int64(n), n)
			qs := make([][2]int64, n/2)
			for i := range qs {
				qs[i] = [2]int64{int64(i % n), int64((i * 7) % n)}
			}
			_, err := graph.LCA(e, parent, root, qs)
			return err
		})},
	{Group: "C", Name: "tree contraction / expression eval", Class: "O(N log N/pDB)", Bench: "tree-contraction",
		Note: "rake + compress",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := graph.ExprEval(e, workload.ExprTree(int64(n), n/2))
			return err
		})},
	{Group: "C", Name: "connected components+spanning forest", Class: "O((V+E) log v/pDB)", Bench: "connected-components",
		Note: "tournament forest merge, λ=O(log v)",
		run: composite(func(e *rec.Exec, n int) error {
			_, _, err := graph.ConnectedComponents(e, n/4, workload.Graph(int64(n), n/4, n))
			return err
		})},
	{Group: "C", Name: "biconnected components", Class: "O((V+E) log v/pDB)", Bench: "biconnected-components",
		Note: "Tarjan–Vishkin",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := graph.Biconn(e, n/4, workload.Graph(int64(n), n/4, n))
			return err
		})},
	{Group: "C", Name: "open ear decomposition", Class: "O((V+E) log v/pDB)", Bench: "ear-decomposition",
		Note: "MSV ears on 2-edge-connected input",
		run: composite(func(e *rec.Exec, n int) error {
			_, err := graph.EarDecomposition(e, n/4, cycleChords(n/4, n/2))
			return err
		})},
}

// Fig5 measures every problem of the paper's Figure 5 under the EM-CGM
// simulation and reports the I/O constants at N and 2N: a flat constant
// confirms the O(N/(pDB)) (or O(N·log/pDB)) shape. The PDM mergesort
// baseline's constant grows with N.
func Fig5(s Scale) (*trace.Table, error) {
	t := &trace.Table{
		Title: fmt.Sprintf("Figure 5 — measured EM-CGM I/O (v=%d, p=%d, D=%d, B=%d; constant = ops/(N/pDB))",
			s.V, s.P, fig5D, s.B),
		Columns: []string{"grp", "problem", "claimed class", "N", "λ", "I/Os", "const@N", "const@2N", "note"},
	}
	for _, p := range Fig5Problems {
		n := p.N(s)
		m, err := p.Measure(s, n)
		if err != nil {
			return nil, err
		}
		m2, err := p.Measure(s, 2*n)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Group, p.Name, p.Class, n, m.Rounds, m.Ops,
			trace.FormatFloat(m.Constant), trace.FormatFloat(m2.Constant), p.Note)
	}
	t.Notes = append(t.Notes,
		"flat const@N vs const@2N confirms I/O linear in N (the O(N/pDB)-class rows)",
		"log-class rows grow by ~log2 ratio; the PDM mergesort baseline's constant grows with N — the paper's contrast",
		fmt.Sprintf("theory check: PDM sort bound at N=%d would be %s ops vs EM-CGM's linear %s",
			s.N,
			trace.FormatFloat(theory.SortIO(float64(s.N), float64(8*fig5D*s.B), float64(s.B), float64(fig5D))),
			trace.FormatFloat(theory.EMCGMIO(float64(s.N), float64(s.P), float64(fig5D), float64(s.B), 4))))
	return t, nil
}

// cycleChords is a 2-edge-connected graph: an n-cycle plus up to chords
// chords.
func cycleChords(n, chords int) []workload.Edge {
	var edges []workload.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, workload.Edge{U: int64(i), V: int64((i + 1) % n)})
	}
	for c := 0; c < chords; c++ {
		u := (c * 13) % n
		w := (c*29 + n/2) % n
		if u == w || (u+1)%n == w || (w+1)%n == u {
			continue
		}
		edges = append(edges, workload.Edge{U: int64(u), V: int64(w)})
	}
	return edges
}
