package experiments

import (
	"fmt"
	"math"

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

// fig5Row is one measured problem: the I/O constant is
// ParallelOps / (N/(pDB)), which Theorems 2–4 predict to be Θ(λ) — flat
// in N for the O(N/pDB) class and growing with log for the log classes.
type fig5Row struct {
	group, problem, class string
	n                     int
	rounds                int
	ops                   int64
	constant              float64 // ops / (N/(pDB))
	constant2x            float64 // same at 2N — flat ⇒ linear I/O
	note                  string
}

// runEM runs a composite algorithm at n and 2n under the EM executor and
// returns the two I/O constants.
func runEM(s Scale, n int, run func(e *rec.Exec, n int) error) (r1, r2 *rec.Exec, err error) {
	e1 := rec.NewEM(s.V, s.P, 2, s.B)
	e1.Recorder = s.Rec
	e1.Ledger = s.Ledger
	if err := run(e1, n); err != nil {
		return nil, nil, err
	}
	e2 := rec.NewEM(s.V, s.P, 2, s.B)
	e2.Recorder = s.Rec
	e2.Ledger = s.Ledger
	if err := run(e2, 2*n); err != nil {
		return nil, nil, err
	}
	return e1, e2, nil
}

// Fig5 measures every problem of the paper's Figure 5 under the EM-CGM
// simulation and reports the I/O constants at N and 2N: a flat constant
// confirms the O(N/(pDB)) (or O(N·log/pDB)) shape. For Group A it also
// measures the classical PDM baselines, whose constants grow with N.
func Fig5(s Scale) (*trace.Table, error) {
	d := 2
	var rows []fig5Row

	addExec := func(group, problem, class string, n int, run func(e *rec.Exec, n int) error, note string) error {
		e1, e2, err := runEM(s, n, run)
		if err != nil {
			return fmt.Errorf("%s: %w", problem, err)
		}
		rows = append(rows, fig5Row{
			group: group, problem: problem, class: class, n: n,
			rounds: e1.Rounds, ops: e1.IO.ParallelOps,
			constant:   theory.IOConstant(e1.IO.ParallelOps, n, s.P, d, s.B),
			constant2x: theory.IOConstant(e2.IO.ParallelOps, 2*n, s.P, d, s.B),
			note:       note,
		})
		return nil
	}

	// ---- Group A ----
	nA := s.N
	{
		run := func(n int) (*core.Result[int64], error) {
			keys := workload.Int64s(int64(n), n)
			cfg := core.Config{V: s.V, P: s.P, D: d, B: s.B, Recorder: s.Rec, PipelineDepth: s.Depth, Ledger: s.Ledger}
			_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
			return res, err
		}
		r1, err := run(nA)
		if err != nil {
			return nil, err
		}
		s.Ledger.SetRunName(fmt.Sprintf("sort n=%d", nA))
		r2, err := run(2 * nA)
		if err != nil {
			return nil, err
		}
		s.Ledger.SetRunName(fmt.Sprintf("sort n=%d", 2*nA))
		// PDM baseline at both sizes, small memory to expose the log factor.
		base := func(n int) (sortalg.Info, error) {
			arr := pdm.NewMemArray(d, s.B)
			recs := make([]pdm.Word, n)
			copy(recs, workload.Uint64s(int64(n), n))
			_, info, err := sortalg.MergeSort(arr, recs, 1, 3*d*s.B)
			return info, err
		}
		b1, err := base(nA)
		if err != nil {
			return nil, err
		}
		b2, err := base(2 * nA)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			fig5Row{group: "A", problem: "sorting (EM-CGM, PSRS)", class: "O(N/pDB)", n: nA,
				rounds: r1.Rounds, ops: r1.IO.ParallelOps,
				constant:   theory.IOConstant(r1.IO.ParallelOps, nA, s.P, d, s.B),
				constant2x: theory.IOConstant(r2.IO.ParallelOps, 2*nA, s.P, d, s.B)},
			fig5Row{group: "A", problem: "sorting (PDM mergesort baseline)", class: "O(N/DB·log_{M/B}N/B)", n: nA,
				rounds: b1.Passes + 1, ops: b1.SortOps,
				constant:   float64(b1.SortOps) / (float64(nA) / float64(d*s.B)),
				constant2x: float64(b2.SortOps) / (float64(2*nA) / float64(d*s.B)),
				note:       "constant grows with N (log factor); M=3DB, fan-in 2"},
		)
	}
	{
		run := func(n int) (*core.Result[permute.Item], error) {
			vals := workload.Int64s(int64(n), n)
			dests := workload.Permutation(int64(n)+1, n)
			cfg := core.Config{V: s.V, P: s.P, D: d, B: s.B, Recorder: s.Rec, PipelineDepth: s.Depth, Ledger: s.Ledger}
			_, res, err := permute.EMPermute(vals, dests, cfg)
			return res, err
		}
		r1, err := run(nA)
		if err != nil {
			return nil, err
		}
		s.Ledger.SetRunName(fmt.Sprintf("permute n=%d", nA))
		r2, err := run(2 * nA)
		if err != nil {
			return nil, err
		}
		s.Ledger.SetRunName(fmt.Sprintf("permute n=%d", 2*nA))
		rows = append(rows, fig5Row{group: "A", problem: "permutation (CGMPermute)", class: "O(N/pDB)", n: nA,
			rounds: r1.Rounds, ops: r1.IO.ParallelOps,
			constant:   theory.IOConstant(r1.IO.ParallelOps, nA, s.P, d, s.B),
			constant2x: theory.IOConstant(r2.IO.ParallelOps, 2*nA, s.P, d, s.B),
			note:       "2 words/item"})
	}
	{
		k := 1 << 7
		run := func(n int) (*core.Result[permute.Item], error) {
			l := n / k
			vals := workload.Int64s(int64(n), k*l)
			cfg := core.Config{V: s.V, P: s.P, D: d, B: s.B, Recorder: s.Rec, PipelineDepth: s.Depth, Ledger: s.Ledger}
			_, res, err := transpose.EMTranspose(vals, k, l, cfg)
			return res, err
		}
		r1, err := run(nA)
		if err != nil {
			return nil, err
		}
		s.Ledger.SetRunName(fmt.Sprintf("transpose n=%d", nA))
		r2, err := run(2 * nA)
		if err != nil {
			return nil, err
		}
		s.Ledger.SetRunName(fmt.Sprintf("transpose n=%d", 2*nA))
		rows = append(rows, fig5Row{group: "A", problem: "matrix transpose (CGMTranspose)", class: "O(N/pDB)", n: nA,
			rounds: r1.Rounds, ops: r1.IO.ParallelOps,
			constant:   theory.IOConstant(r1.IO.ParallelOps, nA, s.P, d, s.B),
			constant2x: theory.IOConstant(r2.IO.ParallelOps, 2*nA, s.P, d, s.B),
			note:       fmt.Sprintf("%d×N/%d matrix", k, k)})
	}

	// ---- Group B ----
	nB := s.N / 8
	if err := addExec("B", "trapezoidal decomposition", "O(N log N/pDB)", nB, func(e *rec.Exec, n int) error {
		ss := workload.NonIntersectingSegments(int64(n), n/2)
		_, err := geom.TrapezoidalDecomposition(e, ss)
		return err
	}, "next-element search on 2n endpoints"); err != nil {
		return nil, err
	}
	if err := addExec("B", "batched planar point location", "O(N log N/pDB)", nB, func(e *rec.Exec, n int) error {
		ss := workload.NonIntersectingSegments(int64(n), n/2)
		faces := make([]int, len(ss))
		for i := range faces {
			faces[i] = i
		}
		qs := workload.Points(int64(n)+2, n/2)
		_, err := geom.LocatePoints(e, ss, faces, qs)
		return err
	}, ""); err != nil {
		return nil, err
	}
	if err := addExec("B", "2D convex hull (for 3D hull row)", "O(N log N/pDB)", nB, func(e *rec.Exec, n int) error {
		_, err := geom.Hull(e, workload.Points(int64(n), n))
		return err
	}, "substitution for the probabilistic 3D hull/Delaunay; see DESIGN.md"); err != nil {
		return nil, err
	}
	if err := addExec("B", "lower envelope of segments", "O(N log N/pDB)", nB, func(e *rec.Exec, n int) error {
		_, err := geom.Envelope(e, workload.NonIntersectingSegments(int64(n), n))
		return err
	}, ""); err != nil {
		return nil, err
	}
	if err := addExec("B", "area of union of rectangles", "O(N log N/pDB)", nB, func(e *rec.Exec, n int) error {
		_, err := geom.UnionArea(e, workload.Rects(int64(n), n, 0.05))
		return err
	}, ""); err != nil {
		return nil, err
	}
	if err := addExec("B", "3D maxima", "O(N log N/pDB)", nB, func(e *rec.Exec, n int) error {
		_, err := geom.Maxima3D(e, workload.Points3(int64(n), n))
		return err
	}, "grid decomposition, exact"); err != nil {
		return nil, err
	}
	if err := addExec("B", "2D nearest neighbours (ANN)", "O(N log N/pDB)", nB, func(e *rec.Exec, n int) error {
		_, err := geom.ANN(e, workload.Points(int64(n), n))
		return err
	}, ""); err != nil {
		return nil, err
	}
	if err := addExec("B", "2D weighted dominance counting", "O(N/pDB)", nB, func(e *rec.Exec, n int) error {
		pts := workload.Points(int64(n), n)
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		_, err := geom.Dominance(e, pts, w)
		return err
	}, ""); err != nil {
		return nil, err
	}
	if err := addExec("B", "multidirectional separability", "O(N/pDB)", nB, func(e *rec.Exec, n int) error {
		red := workload.Points(int64(n), n/2)
		blue := workload.Points(int64(n)+1, n/2)
		for i := range blue {
			blue[i].X += 2
		}
		_, err := geom.Separable(e, red, blue)
		return err
	}, "via two CGM hulls"); err != nil {
		return nil, err
	}
	if err := addExec("B", "unidirectional separability", "O(N/pDB)", nB, func(e *rec.Exec, n int) error {
		red := workload.Points(int64(n), n/2)
		blue := workload.Points(int64(n)+1, n/2)
		_, err := geom.SeparableInDirection(e, red, blue, 1, 0)
		return err
	}, ""); err != nil {
		return nil, err
	}
	if err := addExec("B", "segment tree construction+queries", "O(N log N/pDB)", nB, func(e *rec.Exec, n int) error {
		return runSegtree(e, n)
	}, "distributed slab segment tree, n range-sum queries"); err != nil {
		return nil, err
	}
	if err := addExec("B", "polygon triangulation (x-monotone)", "O(N log N/pDB)", nB, func(e *rec.Exec, n int) error {
		_, err := geom.Triangulate(e, geom.RandomMonotonePolygon(int64(n), n))
		return err
	}, "Steiner points at slab boundaries"); err != nil {
		return nil, err
	}

	// ---- Group C ----
	nC := s.N / 8
	if err := addExec("C", "list ranking", "O(N log N/pDB)", nC, func(e *rec.Exec, n int) error {
		succ, _ := workload.List(int64(n), n)
		_, err := graph.ListRank(e, succ)
		return err
	}, "pointer jumping: log N rounds (paper: log v via ruling sets)"); err != nil {
		return nil, err
	}
	if err := addExec("C", "Euler tour + tree functions", "O(N log N/pDB)", nC, func(e *rec.Exec, n int) error {
		parent, root := workload.Tree(int64(n), n)
		_, _, _, err := graph.TreeFuncs(e, parent, root)
		return err
	}, "depth, preorder, subtree size"); err != nil {
		return nil, err
	}
	if err := addExec("C", "lowest common ancestors", "O(N log N/pDB)", nC, func(e *rec.Exec, n int) error {
		parent, root := workload.Tree(int64(n), n)
		qs := make([][2]int64, n/2)
		for i := range qs {
			qs[i] = [2]int64{int64(i % n), int64((i * 7) % n)}
		}
		_, err := graph.LCA(e, parent, root, qs)
		return err
	}, "Euler tour + distributed RMQ"); err != nil {
		return nil, err
	}
	if err := addExec("C", "tree contraction / expression eval", "O(N log N/pDB)", nC, func(e *rec.Exec, n int) error {
		_, err := graph.ExprEval(e, workload.ExprTree(int64(n), n/2))
		return err
	}, "rake + compress"); err != nil {
		return nil, err
	}
	if err := addExec("C", "connected components+spanning forest", "O((V+E) log v/pDB)", nC, func(e *rec.Exec, n int) error {
		edges := workload.Graph(int64(n), n/4, n)
		_, _, err := graph.ConnectedComponents(e, n/4, edges)
		return err
	}, "tournament forest merge, λ=O(log v)"); err != nil {
		return nil, err
	}
	if err := addExec("C", "biconnected components", "O((V+E) log v/pDB)", nC, func(e *rec.Exec, n int) error {
		edges := workload.Graph(int64(n), n/4, n)
		_, err := graph.Biconn(e, n/4, edges)
		return err
	}, "Tarjan–Vishkin"); err != nil {
		return nil, err
	}
	if err := addExec("C", "open ear decomposition", "O((V+E) log v/pDB)", nC, func(e *rec.Exec, n int) error {
		edges := cycleChords(int64(n), n/4, n/2)
		_, err := graph.EarDecomposition(e, n/4, edges)
		return err
	}, "MSV ears on 2-edge-connected input"); err != nil {
		return nil, err
	}

	t := &trace.Table{
		Title: fmt.Sprintf("Figure 5 — measured EM-CGM I/O (v=%d, p=%d, D=%d, B=%d; constant = ops/(N/pDB))",
			s.V, s.P, d, s.B),
		Columns: []string{"grp", "problem", "claimed class", "N", "λ", "I/Os", "const@N", "const@2N", "note"},
	}
	for _, r := range rows {
		t.AddRow(r.group, r.problem, r.class, r.n, r.rounds, r.ops,
			trace.FormatFloat(r.constant), trace.FormatFloat(r.constant2x), r.note)
	}
	t.Notes = append(t.Notes,
		"flat const@N vs const@2N confirms I/O linear in N (the O(N/pDB)-class rows)",
		"log-class rows grow by ~log2 ratio; the PDM mergesort baseline's constant grows with N — the paper's contrast",
		fmt.Sprintf("theory check: PDM sort bound at N=%d would be %s ops vs EM-CGM's linear %s",
			s.N,
			trace.FormatFloat(theory.SortIO(float64(s.N), float64(8*d*s.B), float64(s.B), float64(d))),
			trace.FormatFloat(theory.EMCGMIO(float64(s.N), float64(s.P), float64(d), float64(s.B), 4))))
	return t, nil
}

// runSegtree exercises the distributed segment tree with n values and n
// range-sum queries.
func runSegtree(e *rec.Exec, n int) error {
	values := make([]rec.R, n)
	for i := range values {
		values[i] = rec.R{A: int64(i), B: int64(i % 13)}
	}
	queries := make([]segQuery, n)
	for i := range queries {
		l := int64((i * 31) % n)
		r := l + int64((i*17)%n)/4 + 1
		if r > int64(n) {
			r = int64(n)
		}
		queries[i] = segQuery{id: int64(i), l: l, r: r}
	}
	return segtreeRun(e, n, values, queries)
}

type segQuery struct{ id, l, r int64 }

func cycleChords(seed int64, n, chords int) []workload.Edge {
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

// keep math import used even if formatting changes
var _ = math.Log2

// segtreeRun adapts to the segtree package.
func segtreeRun(e *rec.Exec, n int, values []rec.R, queries []segQuery) error {
	sq := make([]segtree.Query, len(queries))
	for i, q := range queries {
		sq[i] = segtree.Query{ID: q.id, L: q.l, R: q.r}
	}
	_, err := segtree.Run(e, segtree.SumB(n), values, sq)
	return err
}
